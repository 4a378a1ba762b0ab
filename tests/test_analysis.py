"""repro.analysis — the invariant linter's own contract.

Every rule is pinned twice: a minimal snippet that MUST flag (with the
exact rule id and line) and a near-identical snippet following the
repo convention that MUST stay clean.  On top of the per-rule pairs:

* the canonical injections from the acceptance list (stray numpy
  import, bare float ``sum()``, ``time.sleep`` in a coroutine) turn the
  CLI gate red end-to-end;
* ``# repro: allow[rule-id]`` suppressions drop and count the finding;
* the baseline absorbs listed debt, reports stale entries once the
  debt is fixed, and survives a write -> load round-trip;
* the meta-test: the repo's own ``src/repro`` and ``benchmarks`` trees
  are clean — zero findings with no baseline at all.
"""

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (
    Finding,
    analyze_paths,
    analyze_source,
    baseline_payload,
    get_rule,
    iter_rules,
    load_baseline,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.framework import _apply_baseline

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Default virtual paths per rule — somewhere each rule dispatches to.
SRC = "src/repro/core/x.py"
SERVE = "src/repro/serve/x.py"
BENCH = "benchmarks/test_x_speed.py"


def run(source, rel=SRC):
    findings, _ = analyze_source(dedent(source), rel)
    return findings


def lines_for(findings, rule_id):
    return [f.line for f in findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# backend-purity
# ----------------------------------------------------------------------
def test_backend_purity_flags_stray_numpy_import():
    findings = run(
        """\
        import numpy as np

        def f(xs):
            return np.asarray(xs)
        """
    )
    assert lines_for(findings, "backend-purity") == [1]


def test_backend_purity_flags_from_numpy_import():
    findings = run("from numpy.linalg import norm\n")
    assert lines_for(findings, "backend-purity") == [1]


def test_backend_purity_flags_numpy_inside_backend_module():
    # No module is exempt: backend.py selects tiers, not containers.
    findings = run("import numpy\n", rel="src/repro/backend.py")
    assert lines_for(findings, "backend-purity") == [1]


def test_backend_purity_ignores_non_numpy_functions():
    # No numpy import: plain-python code is clean.
    findings = run(
        """\
        def plain(col, i):
            return col[i]
        """
    )
    assert lines_for(findings, "backend-purity") == []


# ----------------------------------------------------------------------
# exact-accumulation
# ----------------------------------------------------------------------
def test_exact_accumulation_flags_builtin_sum_over_dists():
    findings = run(
        """\
        def total(dists):
            return sum(dists)
        """
    )
    assert lines_for(findings, "exact-accumulation") == [2]


def test_exact_accumulation_flags_column_fold_loop():
    findings = run(
        """\
        def total(weights):
            acc = 0.0
            for w in weights:
                acc += w
            return acc
        """
    )
    assert lines_for(findings, "exact-accumulation") == [4]


def test_exact_accumulation_clean_with_fsum():
    findings = run(
        """\
        import math

        def total(dists):
            return math.fsum(dists)
        """
    )
    assert lines_for(findings, "exact-accumulation") == []


def test_exact_accumulation_allows_len_counting():
    findings = run(
        """\
        def entries(labels):
            return sum(len(dists) for dists in labels)
        """
    )
    assert lines_for(findings, "exact-accumulation") == []


def test_exact_accumulation_allows_per_path_chained_sum():
    # Walking a path edge by edge must STAY incremental: it mirrors the
    # engines' own d + w chains bit for bit.  The rule's docstring
    # promises this exemption.
    findings = run(
        """\
        def path_length(graph, nodes):
            total = 0.0
            for u, v in zip(nodes, nodes[1:]):
                total += graph.edge_weight(u, v)
            return total
        """
    )
    assert lines_for(findings, "exact-accumulation") == []


# ----------------------------------------------------------------------
# workspace-discipline
# ----------------------------------------------------------------------
def test_workspace_flags_missing_release():
    findings = run(
        """\
        def query(graph, s):
            ws = acquire(graph)
            return ws.dist[s]
        """
    )
    assert lines_for(findings, "workspace-discipline") == [2]


def test_workspace_flags_release_outside_finally():
    findings = run(
        """\
        def query(graph, s):
            ws = acquire(graph)
            d = ws.dist[s]
            release(graph, ws)
            return d
        """
    )
    assert lines_for(findings, "workspace-discipline") == [4]


def test_workspace_flags_reacquire_while_live():
    findings = run(
        """\
        def query(graph, s):
            ws = acquire(graph)
            try:
                ws = acquire(graph)
                return ws.dist[s]
            finally:
                release(graph, ws)
        """
    )
    assert 4 in lines_for(findings, "workspace-discipline")


def test_workspace_clean_try_finally_pairing():
    findings = run(
        """\
        def query(graph, s):
            ws = acquire(graph)
            try:
                return ws.dist[s]
            finally:
                release(graph, ws)
        """
    )
    assert lines_for(findings, "workspace-discipline") == []


def test_workspace_ignores_lock_acquire_methods():
    # lock.acquire() is a method call, not the pool's bare acquire().
    findings = run(
        """\
        def locked(lock):
            got = lock.acquire()
            return got
        """
    )
    assert lines_for(findings, "workspace-discipline") == []


# ----------------------------------------------------------------------
# asyncio-discipline
# ----------------------------------------------------------------------
def test_asyncio_flags_time_sleep_in_coroutine():
    findings = run(
        """\
        import time

        async def tick():
            time.sleep(0.1)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == [4]


def test_asyncio_flags_bare_imported_sleep():
    findings = run(
        """\
        from time import sleep

        async def tick():
            sleep(0.1)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == [4]


def test_asyncio_clean_await_asyncio_sleep():
    findings = run(
        """\
        import asyncio

        async def tick():
            await asyncio.sleep(0.1)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == []


def test_asyncio_flags_blocking_pipe_recv():
    findings = run(
        """\
        async def pump(conn):
            return conn.recv()
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == [2]


def test_asyncio_clean_sync_function_recv():
    # The pool's worker loops are synchronous processes: recv() there
    # is the whole point, not a hazard.
    findings = run(
        """\
        def pump(conn):
            return conn.recv()
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == []


def test_asyncio_flags_sync_lock_across_await():
    findings = run(
        """\
        import asyncio

        async def update(self):
            with self._lock:
                await asyncio.sleep(0)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == [4]


def test_asyncio_clean_lock_without_await():
    findings = run(
        """\
        async def update(self):
            with self._lock:
                self.count += 1
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "asyncio-discipline") == []


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------
def test_spawn_flags_lambda_target():
    findings = run(
        """\
        import multiprocessing as mp

        def start(ctx):
            return ctx.Process(target=lambda: None)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "spawn-safety") == [4]


def test_spawn_flags_nested_function_target():
    findings = run(
        """\
        def start(ctx, spec):
            def work():
                return spec
            return ctx.Process(target=work)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "spawn-safety") == [4]


def test_spawn_flags_bound_method_target():
    findings = run(
        """\
        class Pool:
            def start(self, ctx):
                return ctx.Process(target=self.run)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "spawn-safety") == [3]


def test_spawn_clean_module_level_target():
    findings = run(
        """\
        def _worker_main(conn, spec):
            pass

        def start(ctx, conn, spec):
            return ctx.Process(target=_worker_main, args=(conn, spec))
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "spawn-safety") == []


def test_spawn_flags_resource_tracker_touch():
    findings = run(
        """\
        from multiprocessing import resource_tracker

        def detach(name):
            resource_tracker.unregister(name, "shared_memory")
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "spawn-safety") == [1, 4]


# ----------------------------------------------------------------------
# serialize-symmetry
# ----------------------------------------------------------------------
def test_serialize_flags_pack_without_matching_unpack():
    findings = run(
        """\
        import struct

        def save(fh, n):
            fh.write(struct.pack("<qq", n, n * 2))
        """
    )
    assert lines_for(findings, "serialize-symmetry") == [4]


def test_serialize_flags_native_order_format():
    findings = run(
        """\
        import struct

        def save(fh, n):
            fh.write(struct.pack("q", n))

        def load(data):
            return struct.unpack("q", data)
        """
    )
    assert lines_for(findings, "serialize-symmetry") == [4, 7]


def test_serialize_flags_computed_format():
    findings = run(
        """\
        import struct

        def save(fh, fmt, n):
            fh.write(struct.pack(fmt, n))
        """
    )
    assert lines_for(findings, "serialize-symmetry") == [4]


def test_serialize_clean_paired_little_endian():
    findings = run(
        """\
        import struct

        def save(fh, n, m):
            fh.write(struct.pack("<qq", n, m))

        def load(data):
            return struct.unpack("<qq", data)
        """
    )
    assert lines_for(findings, "serialize-symmetry") == []


def test_serialize_expanded_field_match_crosses_repeat_notation():
    # "<2q" expands to the same fields as "<qq": symmetric, not flagged.
    findings = run(
        """\
        import struct

        def save(fh, n, m):
            fh.write(struct.pack("<2q", n, m))

        def load(data):
            return struct.unpack("<qq", data)
        """
    )
    assert lines_for(findings, "serialize-symmetry") == []


def test_serialize_unpaired_unpack_is_fine():
    # Readers may peek at prefixes the writer never emits standalone.
    findings = run(
        """\
        import struct

        def peek(data):
            return struct.unpack_from("<i", data, 0)
        """
    )
    assert lines_for(findings, "serialize-symmetry") == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_loop_over_set_name():
    findings = run(
        """\
        def collect(edges):
            nodes = set()
            for u, v in edges:
                nodes.add(u)
                nodes.add(v)
            out = []
            for u in nodes:
                out.append(u)
            return out
        """
    )
    assert lines_for(findings, "determinism") == [7]


def test_determinism_flags_comprehension_over_set_call():
    findings = run(
        """\
        def collect(xs):
            return [x for x in set(xs)]
        """
    )
    assert lines_for(findings, "determinism") == [2]


def test_determinism_clean_sorted_set():
    findings = run(
        """\
        def collect(edges):
            nodes = set()
            for u, v in edges:
                nodes.add(u)
            return [u for u in sorted(nodes)]
        """
    )
    assert lines_for(findings, "determinism") == []


def test_determinism_does_not_flag_dict_iteration():
    # Dicts are insertion-ordered: deterministic when the build is.
    findings = run(
        """\
        def collect(pairs):
            seen = {}
            for k, v in pairs:
                seen[k] = v
            return [k for k in seen]
        """
    )
    assert lines_for(findings, "determinism") == []


def test_determinism_only_answer_path_dirs():
    # Outside baselines/graph/core/serve the rule does not dispatch.
    findings = run(
        """\
        def collect(xs):
            return [x for x in set(xs)]
        """,
        rel="src/repro/bench/x.py",
    )
    assert lines_for(findings, "determinism") == []


# ----------------------------------------------------------------------
# bench-honesty
# ----------------------------------------------------------------------
def test_bench_flags_ungated_timing_floor():
    findings = run(
        """\
        def guard(result):
            assert result["speedup"] >= 2.0
        """,
        rel=BENCH,
    )
    assert lines_for(findings, "bench-honesty") == [2]


def test_bench_clean_gated_timing_floor():
    findings = run(
        """\
        def guard(result):
            if visible_cpus() >= 2:
                assert result["speedup"] >= 2.0
        """,
        rel=BENCH,
    )
    assert lines_for(findings, "bench-honesty") == []


def test_bench_flags_gated_size_floor():
    findings = run(
        """\
        def guard(result):
            if visible_cpus() >= 2:
                assert result["label_bytes"] <= 1000
        """,
        rel=BENCH,
    )
    assert lines_for(findings, "bench-honesty") == [3]


def test_bench_clean_hard_size_floor():
    findings = run(
        """\
        def guard(result):
            assert result["size_ratio"] >= 2.5
        """,
        rel=BENCH,
    )
    assert lines_for(findings, "bench-honesty") == []


def test_bench_timing_vs_timing_ordering_exempt():
    # p50 <= p99 is a machine-relative ordering, not a floor.
    findings = run(
        """\
        def guard(result):
            assert result["p50_us"] <= result["p99_us"]
        """,
        rel=BENCH,
    )
    assert lines_for(findings, "bench-honesty") == []


def test_bench_rule_only_sees_benchmarks():
    findings = run(
        """\
        def guard(result):
            assert result["speedup"] >= 2.0
        """,
        rel=SRC,
    )
    assert lines_for(findings, "bench-honesty") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_comment_drops_and_counts_finding():
    src = dedent(
        """\
        def total(dists):
            return sum(dists)  # repro: allow[exact-accumulation]
        """
    )
    findings, suppressed = analyze_source(src, SRC)
    assert lines_for(findings, "exact-accumulation") == []
    assert suppressed == 1


def test_suppression_is_per_rule():
    # Allowing a different rule's id keeps the finding.
    src = dedent(
        """\
        def total(dists):
            return sum(dists)  # repro: allow[determinism]
        """
    )
    findings, suppressed = analyze_source(src, SRC)
    assert lines_for(findings, "exact-accumulation") == [2]
    assert suppressed == 0


def test_suppression_comma_list():
    src = dedent(
        """\
        def total(dists):
            return sum(dists)  # repro: allow[determinism, exact-accumulation]
        """
    )
    findings, suppressed = analyze_source(src, SRC)
    assert lines_for(findings, "exact-accumulation") == []
    assert suppressed == 1


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _finding(path=SRC, rule="exact-accumulation", code="return sum(dists)"):
    return Finding(path=path, line=2, col=11, rule=rule, message="m", code=code)


def test_baseline_absorbs_listed_debt():
    f = _finding()
    entries = baseline_payload([f])["findings"]
    fresh, absorbed, stale = _apply_baseline([f], entries)
    assert fresh == [] and absorbed == [f] and stale == []


def test_baseline_key_ignores_line_numbers():
    # Same path/rule/code on a different line still matches: unrelated
    # edits shifting the file must not churn the baseline.
    entries = baseline_payload([_finding()])["findings"]
    moved = Finding(
        path=SRC, line=99, col=4, rule="exact-accumulation",
        message="m", code="return sum(dists)",
    )
    fresh, absorbed, stale = _apply_baseline([moved], entries)
    assert fresh == [] and absorbed == [moved] and stale == []


def test_baseline_reports_stale_entries():
    entries = baseline_payload([_finding()])["findings"]
    fresh, absorbed, stale = _apply_baseline([], entries)
    assert fresh == [] and absorbed == []
    assert stale == [
        {
            "path": SRC,
            "rule": "exact-accumulation",
            "code": "return sum(dists)",
            "unmatched": 1,
        }
    ]


def test_baseline_entry_absorbs_at_most_one_finding():
    f = _finding()
    entries = baseline_payload([f])["findings"]
    fresh, absorbed, stale = _apply_baseline([f, f], entries)
    assert len(absorbed) == 1 and len(fresh) == 1


def test_baseline_round_trips_through_file(tmp_path):
    f = _finding()
    path = tmp_path / "analysis-baseline.json"
    path.write_text(json.dumps(baseline_payload([f]), indent=2))
    entries = load_baseline(path)
    assert entries == [
        {"path": SRC, "rule": "exact-accumulation", "code": "return sum(dists)"}
    ]


def test_baseline_rejects_malformed_entries(tmp_path):
    path = tmp_path / "analysis-baseline.json"
    path.write_text(json.dumps({"findings": [{"path": "x.py"}]}))
    with pytest.raises(ValueError, match="malformed baseline entry"):
        load_baseline(path)


# ----------------------------------------------------------------------
# recv-timeout-discipline
# ----------------------------------------------------------------------
def test_recv_discipline_flags_unbounded_poll():
    # the untimed poll is flagged, and — because the scope then has no
    # timed wait at all — so is the bare recv it was meant to guard
    findings = run(
        """\
        def collect(conn):
            if conn.poll():
                return conn.recv()
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == [2, 3]


def test_recv_discipline_flags_poll_none():
    findings = run("def f(conn):\n    conn.poll(None)\n", rel=SERVE)
    assert lines_for(findings, "recv-timeout-discipline") == [2]


def test_recv_discipline_flags_bare_recv_without_timed_poll():
    findings = run(
        """\
        def collect(conn):
            return conn.recv()
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == [2]


def test_recv_discipline_accepts_recv_guarded_by_timed_poll():
    findings = run(
        """\
        def collect(conn, timeout):
            if not conn.poll(timeout):
                raise TimeoutError
            return conn.recv()
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == []


def test_recv_discipline_flags_untimed_connection_wait():
    findings = run(
        """\
        from multiprocessing.connection import wait as _conn_wait

        def race(conns):
            return _conn_wait(conns)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == [4]


def test_recv_discipline_accepts_timed_connection_wait():
    findings = run(
        """\
        from multiprocessing.connection import wait as _conn_wait

        def race(conns, budget):
            return _conn_wait(conns, timeout=budget)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == []


def test_recv_discipline_flags_unguarded_fault_hook():
    findings = run(
        """\
        from . import faults as _faults

        def dispatch(self, msg, fault):
            _faults.apply_pre(fault)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == [4]


def test_recv_discipline_accepts_none_guarded_fault_hook():
    findings = run(
        """\
        from . import faults as _faults

        def dispatch(self, msg, fault):
            if fault is not None:
                _faults.apply_pre(fault)
            if self._fault_plan is not None:
                return self._fault_plan.take(0, 1)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "recv-timeout-discipline") == []


def test_recv_discipline_skips_faults_module_and_other_packages():
    source = "def f(conn):\n    return conn.recv()\n"
    assert (
        lines_for(
            run(source, rel="src/repro/serve/faults.py"),
            "recv-timeout-discipline",
        )
        == []
    )
    assert (
        lines_for(run(source, rel=SRC), "recv-timeout-discipline") == []
    )


# ----------------------------------------------------------------------
# hot-path-pickle-discipline
# ----------------------------------------------------------------------
def test_pickle_discipline_flags_send_of_request_sequence():
    findings = run(
        """\
        def dispatch(self, conn, reqs):
            conn.send(("batch", reqs))
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "hot-path-pickle-discipline") == [2]


def test_pickle_discipline_flags_pickle_dumps_of_requests():
    findings = run(
        """\
        import pickle

        def frame(self, requests):
            return pickle.dumps(requests)
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "hot-path-pickle-discipline") == [4]


def test_pickle_discipline_accepts_control_frames_and_packed_sends():
    # Control frames / byte payloads don't mention request identifiers;
    # the packed encoder itself is not a send.
    findings = run(
        """\
        import pickle

        def dispatch(self, conn, reqs, blob, crc):
            packed = pack_requests(reqs)
            conn.send(("reql", 0, len(blob), crc))
            self._pipe_bytes += len(pickle.dumps(("reql", 0, crc)))
        """,
        rel=SERVE,
    )
    assert lines_for(findings, "hot-path-pickle-discipline") == []


def test_pickle_discipline_allow_annotation_suppresses():
    findings, suppressed = analyze_source(
        dedent(
            """\
            def retry(self, handle, reqs):
                handle.send(("batch", reqs))  # repro: allow[hot-path-pickle-discipline]
            """
        ),
        SERVE,
    )
    assert lines_for(findings, "hot-path-pickle-discipline") == []
    assert suppressed == 1


def test_pickle_discipline_skips_faults_module_and_other_packages():
    source = "def f(conn, reqs):\n    conn.send(reqs)\n"
    assert (
        lines_for(
            run(source, rel="src/repro/serve/faults.py"),
            "hot-path-pickle-discipline",
        )
        == []
    )
    assert (
        lines_for(run(source, rel=SRC), "hot-path-pickle-discipline") == []
    )


# ----------------------------------------------------------------------
# native-boundary-discipline
# ----------------------------------------------------------------------
def test_native_discipline_flags_ctypes_import():
    findings = run("import ctypes\n")
    assert lines_for(findings, "native-boundary-discipline") == [1]


def test_native_discipline_flags_compiled_module_import():
    findings = run("import repro.native._hubjoin\n")
    assert lines_for(findings, "native-boundary-discipline") == [1]


def test_native_discipline_flags_from_native_private_import():
    findings = run("from repro.native import _hubjoin\n")
    assert lines_for(findings, "native-boundary-discipline") == [1]


def test_native_discipline_allows_facade_import():
    findings = run("from repro import native\n")
    assert lines_for(findings, "native-boundary-discipline") == []


def test_native_discipline_allows_anything_inside_native_pkg():
    findings = run(
        "import ctypes\nfrom . import _hubjoin\n",
        rel="src/repro/native/__init__.py",
    )
    assert lines_for(findings, "native-boundary-discipline") == []


def test_native_discipline_flags_bare_kernel_return():
    findings = run(
        """\
        from repro import native as _native

        def distance(self, s, t):
            return _native.distance(self.fh, self.fu, self.fd, s, t)
        """,
        rel="src/repro/baselines/hl.py",
    )
    assert lines_for(findings, "native-boundary-discipline") == [4]


def test_native_discipline_flags_bare_subscript_return():
    findings = run(
        """\
        from repro import native as _native

        def one(self, s, ts):
            out = _native.one_to_many(self.fh, s, ts)
            return out[0]
        """,
        rel="src/repro/baselines/hl.py",
    )
    assert lines_for(findings, "native-boundary-discipline") == [5]


def test_native_discipline_clean_coerced_returns():
    findings = run(
        """\
        from repro import native as _native

        def distance(self, s, t):
            return float(_native.distance(self.fh, self.fu, self.fd, s, t))

        def table(self, ss, ts):
            return list(_native.distance_table(self.fh, ss, ts))
        """,
        rel="src/repro/baselines/hl.py",
    )
    assert lines_for(findings, "native-boundary-discipline") == []


def test_native_discipline_return_check_scoped_to_kernel_dirs():
    # Outside baselines//graph//core/ the return-coercion check is off.
    findings = run(
        """\
        from repro import native as _native

        def probe():
            return _native.version()
        """,
        rel="src/repro/serve/x.py",
    )
    assert lines_for(findings, "native-boundary-discipline") == []


# ----------------------------------------------------------------------
# Registry / --explain plumbing
# ----------------------------------------------------------------------
EXPECTED_RULES = [
    "asyncio-discipline",
    "backend-purity",
    "bench-honesty",
    "determinism",
    "exact-accumulation",
    "hot-path-pickle-discipline",
    "native-boundary-discipline",
    "recv-timeout-discipline",
    "serialize-symmetry",
    "spawn-safety",
    "workspace-discipline",
]


def test_all_eleven_rules_registered():
    assert [r.id for r in iter_rules()] == EXPECTED_RULES


def test_every_rule_documents_itself():
    for rule in iter_rules():
        text = rule.explain()
        assert rule.id in text
        assert rule.contract and rule.rationale and rule.motivated_by
        assert f"allow[{rule.id}]" in text


def test_get_rule_unknown_id():
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("no-such-rule")


# ----------------------------------------------------------------------
# CLI: the gate end to end
# ----------------------------------------------------------------------
CANONICAL_VIOLATIONS = {
    "backend-purity": "import numpy as np\n",
    "exact-accumulation": "def t(dists):\n    return sum(dists)\n",
    "asyncio-discipline": (
        "import time\n\nasync def tick():\n    time.sleep(0.1)\n"
    ),
}


def _mini_repo(tmp_path, source="x = 1\n"):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


@pytest.mark.parametrize("rule_id", sorted(CANONICAL_VIOLATIONS))
def test_cli_gate_turns_red_on_canonical_violation(tmp_path, capsys, rule_id):
    root = _mini_repo(tmp_path, CANONICAL_VIOLATIONS[rule_id])
    assert analysis_main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert f"[{rule_id}]" in out


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    root = _mini_repo(tmp_path)
    assert analysis_main(["--root", str(root)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exit_one_on_syntax_error(tmp_path, capsys):
    root = _mini_repo(tmp_path, "def broken(:\n")
    assert analysis_main(["--root", str(root)]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_cli_json_report_shape(tmp_path, capsys):
    root = _mini_repo(tmp_path, CANONICAL_VIOLATIONS["backend-purity"])
    assert analysis_main(["--root", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files"] == 1
    assert report["rules"] == EXPECTED_RULES
    (finding,) = report["findings"]
    assert finding["rule"] == "backend-purity"
    assert finding["path"] == "src/repro/mod.py"
    assert finding["line"] == 1
    assert finding["code"] == "import numpy as np"


def test_cli_baseline_cycle(tmp_path, capsys):
    # red -> --write-baseline -> green -> fix -> stale entry reported.
    root = _mini_repo(tmp_path, CANONICAL_VIOLATIONS["exact-accumulation"])
    baseline = root / "analysis-baseline.json"
    assert analysis_main(["--root", str(root)]) == 1
    capsys.readouterr()

    assert analysis_main(["--root", str(root), "--write-baseline"]) == 0
    assert baseline.exists()
    capsys.readouterr()

    assert analysis_main(["--root", str(root)]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # --no-baseline sees through the absorbed debt.
    assert analysis_main(["--root", str(root), "--no-baseline"]) == 1
    capsys.readouterr()

    (root / "src" / "repro" / "mod.py").write_text(
        "import math\n\ndef t(dists):\n    return math.fsum(dists)\n"
    )
    assert analysis_main(["--root", str(root)]) == 0
    assert "stale baseline" in capsys.readouterr().out


def test_cli_explain_prints_contract(capsys):
    assert analysis_main(["--explain", "bench-honesty"]) == 0
    out = capsys.readouterr().out
    assert "bench-honesty" in out
    assert "visible_cpus" in out
    assert "allow[bench-honesty]" in out


def test_cli_explain_unknown_rule(capsys):
    assert analysis_main(["--explain", "nope"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


def test_cli_rejects_missing_path(tmp_path, capsys):
    root = _mini_repo(tmp_path)
    assert analysis_main(["--root", str(root), "nope/missing.py"]) == 2
    assert "no such path" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Meta: the repo itself is clean
# ----------------------------------------------------------------------
def test_repo_is_clean_without_baseline():
    """src/repro and benchmarks carry zero violations — the gate's
    steady state is an empty baseline, not absorbed debt."""
    paths = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"]
    report = analyze_paths(paths, REPO_ROOT, baseline_entries=None)
    assert report.files > 50
    rendered = "\n".join(f.render() for f in report.findings + report.errors)
    assert not report.errors, rendered
    assert not report.findings, rendered


def test_committed_baseline_is_empty():
    baseline = REPO_ROOT / "analysis-baseline.json"
    assert baseline.exists()
    assert load_baseline(baseline) == []
