/* _hubjoin: native kernels for the HL query path and for AH.
 *
 * The three hub-label query kernels as tight C loops over the label
 * columns, reached through the buffer protocol — the module never
 * imports numpy and never copies a column.  The table kernel comes in
 * two calls: `table_inversion` builds a target tuple's hub runs once,
 * as an opaque handle the caller may keep, and `distance_table` joins
 * sources against a handle.  Built and loaded indexes
 * hold one layout: int64 heads/hubs (stdlib array('q') or any 8-byte
 * integer buffer) and float64 dists (array('d')); anything else is
 * refused with TypeError.  Beside them, `local_search` is the region
 * Dijkstra of AH's and FC's level assignment, run over the region
 * graph's own (j, w) rows, and `ah_query` is AH's constrained
 * bidirectional query, run over the index's own query tables, with the
 * path it finds unpacked from the same upward rows.
 *
 * Bit-identity contract (the repo's standing one): every answer equals
 * the pure-python code bit for bit.  The arithmetic here is the same
 * the pure code performs — candidate sums are single `a + b` double
 * additions, and min over candidates is order-independent for the
 * NaN-free, non-negative values labels and weights hold.
 * `tests/test_backend_parity.py` pins the claim for the HL kernels
 * under hypothesis, native against pure, on built and on loaded
 * indexes; `tests/test_native.py` and `tests/test_levels_reference.py`
 * pin it for the region search, and `tests/test_native.py` and
 * `tests/test_ah_query_tables.py` for the AH query.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#define HUBJOIN_VERSION "5"

/* One label column: a borrowed C-contiguous buffer of 8-byte items. */
typedef struct {
    Py_buffer view;
    Py_ssize_t len;   /* elements, not bytes */
} col_t;

/* Acquire `obj` as a flat column of float64 (`isfloat`) or int64. */
static int
col_acquire(PyObject *obj, col_t *c, const char *name, int isfloat)
{
    if (PyObject_GetBuffer(obj, &c->view, PyBUF_FORMAT | PyBUF_ND) < 0) {
        return -1;
    }
    const char *fmt = c->view.format ? c->view.format : "B";
    if (*fmt == '@' || *fmt == '<' || *fmt == '=') {
        fmt++; /* little-endian / native prefixes; the repo is LE-only */
    }
    int ok = isfloat ? *fmt == 'd' : (*fmt == 'q' || *fmt == 'l');
    /* PyBUF_ND guarantees C-contiguity; ndim 0/1 both fine. */
    if (!ok || fmt[1] != '\0' || c->view.itemsize != 8 ||
        c->view.ndim > 1 || c->view.strides != NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s: expected a flat %s column, got format '%s' "
                     "(itemsize %zd)",
                     name, isfloat ? "float64" : "int64",
                     c->view.format ? c->view.format : "?",
                     c->view.itemsize);
        PyBuffer_Release(&c->view);
        return -1;
    }
    c->len = c->view.len / 8;
    return 0;
}

static inline int64_t
col_i(const col_t *c, Py_ssize_t k)
{
    return ((const int64_t *)c->view.buf)[k];
}

static inline double
col_d(const col_t *c, Py_ssize_t k)
{
    return ((const double *)c->view.buf)[k];
}

/* One label direction's query-time columns: head, hub, dist. */
typedef struct {
    col_t head, hub, dist;
} side_t;

static const char *const fwd_names[3] = {"fwd_head", "fwd_hub", "fwd_dist"};
static const char *const bwd_names[3] = {"bwd_head", "bwd_hub", "bwd_dist"};

static void
side_release(side_t *S)
{
    PyBuffer_Release(&S->head.view);
    PyBuffer_Release(&S->hub.view);
    PyBuffer_Release(&S->dist.view);
}

/* Acquire one direction's (head, hub, dist) columns, named `names`. */
static int
side_acquire(PyObject *const objs[3], const char *const names[3], side_t *S)
{
    col_t *cols[3] = {&S->head, &S->hub, &S->dist};
    for (int i = 0; i < 3; i++) {
        if (col_acquire(objs[i], cols[i], names[i], i == 2) < 0) {
            for (int j = 0; j < i; j++) {
                PyBuffer_Release(&cols[j]->view);
            }
            return -1;
        }
    }
    if (S->hub.len != S->dist.len) {
        side_release(S);
        PyErr_SetString(PyExc_ValueError,
                        "hub and dist columns differ in length");
        return -1;
    }
    return 0;
}

/* Both directions, in hl.py's order: fwd head, hub, dist, then bwd. */
typedef struct {
    side_t f, b;
} labels_t;

static int
labels_acquire(PyObject *const objs[6], labels_t *L)
{
    if (side_acquire(objs, fwd_names, &L->f) < 0) return -1;
    if (side_acquire(objs + 3, bwd_names, &L->b) < 0) {
        side_release(&L->f);
        return -1;
    }
    return 0;
}

static void
labels_release(labels_t *L)
{
    side_release(&L->f);
    side_release(&L->b);
}

/* Validated label slice [lo, hi) for node u out of a head column. */
static int
node_slice(const col_t *head, const col_t *hub, int64_t u, const char *what,
           Py_ssize_t *lo, Py_ssize_t *hi)
{
    if (u < 0 || u + 1 >= head->len) {
        PyErr_Format(PyExc_IndexError, "%s %lld out of range",
                     what, (long long)u);
        return -1;
    }
    int64_t a = col_i(head, u), b = col_i(head, u + 1);
    if (a < 0 || b < a || b > hub->len) {
        PyErr_Format(PyExc_ValueError,
                     "corrupt head column at %s %lld", what, (long long)u);
        return -1;
    }
    *lo = (Py_ssize_t)a;
    *hi = (Py_ssize_t)b;
    return 0;
}

/* A sequence of node ids in [0, n) as a new PyMem int64 array of
 * `*count` entries; an id out of range raises IndexError naming `what`
 * ("source" / "target"), a non-sequence TypeError with `seqmsg`. */
static int64_t *
ids_read(PyObject *obj, long long n, const char *what, const char *seqmsg,
         Py_ssize_t *count)
{
    PyObject *seq = PySequence_Fast(obj, seqmsg);
    if (seq == NULL) return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    int64_t *ids = PyMem_Malloc((size_t)(len ? len : 1) * sizeof(int64_t));
    if (ids == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t k = 0; k < len; k++) {
        long long u = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, k));
        if (u == -1 && PyErr_Occurred()) goto fail;
        if (u < 0 || u >= n) {
            PyErr_Format(PyExc_IndexError, "%s %lld out of range", what, u);
            goto fail;
        }
        ids[k] = u;
    }
    Py_DECREF(seq);
    *count = len;
    return ids;
fail:
    PyMem_Free(ids);
    Py_DECREF(seq);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* distance(fhead, fhub, fdist, bhead, bhub, bdist, source, target)   */
/* ------------------------------------------------------------------ */
static PyObject *
hubjoin_distance(PyObject *self, PyObject *args)
{
    PyObject *objs[6];
    long long source, target;
    if (!PyArg_ParseTuple(args, "OOOOOOLL",
                          &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5],
                          &source, &target)) {
        return NULL;
    }
    labels_t L;
    if (labels_acquire(objs, &L) < 0) return NULL;
    Py_ssize_t i, iend, j, jend;
    if (node_slice(&L.f.head, &L.f.hub, source, "source", &i, &iend) < 0 ||
        node_slice(&L.b.head, &L.b.hub, target, "target", &j, &jend) < 0) {
        labels_release(&L);
        return NULL;
    }
    double best = HUGE_VAL;
    while (i < iend && j < jend) {
        int64_t a = col_i(&L.f.hub, i);
        int64_t b = col_i(&L.b.hub, j);
        if (a == b) {
            double d = col_d(&L.f.dist, i) + col_d(&L.b.dist, j);
            if (d < best) best = d;
            i++;
            j++;
        } else if (a < b) {
            i++;
        } else {
            j++;
        }
    }
    labels_release(&L);
    return PyFloat_FromDouble(best);
}

/* ------------------------------------------------------------------ */
/* one_to_many(fhead, ..., bdist, n, source, targets) -> [float, ...] */
/* ------------------------------------------------------------------ */
static PyObject *
hubjoin_one_to_many(PyObject *self, PyObject *args)
{
    PyObject *objs[6], *targets_obj;
    long long n, source;
    if (!PyArg_ParseTuple(args, "OOOOOOLLO",
                          &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5],
                          &n, &source, &targets_obj)) {
        return NULL;
    }
    labels_t L;
    if (labels_acquire(objs, &L) < 0) return NULL;
    Py_ssize_t ntargets = 0;
    double *out = NULL, *dense = NULL;
    int64_t *tgt = ids_read(targets_obj, n, "target",
                            "targets must be a sequence", &ntargets);
    if (tgt == NULL) goto fail;
    out = PyMem_Malloc((size_t)(ntargets ? ntargets : 1) * sizeof(double));
    dense = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (out == NULL || dense == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t fs, fe;
    if (node_slice(&L.f.head, &L.f.hub, source, "source", &fs, &fe) < 0) {
        goto fail;
    }
    if (L.b.head.len != n + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "bwd_head length does not match node count");
        goto fail;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t u = 0; u < n; u++) {
        dense[u] = HUGE_VAL;
    }
    for (Py_ssize_t k = fs; k < fe; k++) {
        int64_t h = col_i(&L.f.hub, k);
        if (h >= 0 && h < n) {
            dense[h] = col_d(&L.f.dist, k);
        }
    }
    for (Py_ssize_t k = 0; k < ntargets; k++) {
        int64_t t = tgt[k];
        if (t == source) {
            out[k] = 0.0;
            continue;
        }
        Py_ssize_t lo = (Py_ssize_t)col_i(&L.b.head, t);
        Py_ssize_t hi = (Py_ssize_t)col_i(&L.b.head, t + 1);
        if (lo < 0) lo = 0;
        if (hi > L.b.hub.len) hi = L.b.hub.len;
        double best = HUGE_VAL;
        for (Py_ssize_t j = lo; j < hi; j++) {
            int64_t h = col_i(&L.b.hub, j);
            if (h < 0 || h >= n) continue; /* not a hub: no dense slot */
            double d = dense[h] + col_d(&L.b.dist, j);
            if (d < best) best = d;
        }
        out[k] = best;
    }
    Py_END_ALLOW_THREADS
    {
        PyObject *result = PyList_New(ntargets);
        if (result == NULL) goto fail;
        for (Py_ssize_t k = 0; k < ntargets; k++) {
            PyObject *v = PyFloat_FromDouble(out[k]);
            if (v == NULL) {
                Py_DECREF(result);
                goto fail;
            }
            PyList_SET_ITEM(result, k, v);
        }
        PyMem_Free(tgt);
        PyMem_Free(out);
        PyMem_Free(dense);
        labels_release(&L);
        return result;
    }
fail:
    PyMem_Free(tgt);
    PyMem_Free(out);
    PyMem_Free(dense);
    labels_release(&L);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* table_inversion(bhead, bhub, bdist, n, targets) -> handle          */
/*                                                                    */
/* Counting-sort the targets' backward entries by hub: the same       */
/* hub -> (column, dist) inversion the pure scan memoizes.  The runs  */
/* live in an opaque capsule that distance_table below reads; hl.py   */
/* keeps it in the index's inversion memo, so a repeated target tuple */
/* pays none of the O(n) set-up (zeroing, prefix sum, rewind).  The   */
/* runs are never written after this call returns, so any number of  */
/* joins may read one handle at once.                                 */
/* ------------------------------------------------------------------ */
#define TINV_NAME "repro.native._hubjoin.table_inversion"

typedef struct {
    Py_ssize_t n;     /* node count the runs index: gstart has n + 1 slots */
    Py_ssize_t ntgt;  /* target count, the width of a table row */
    int64_t *tgt;     /* the target ids, for the source == target cells */
    int64_t *gstart;  /* hub h's run is [gstart[h], gstart[h + 1]) */
    int64_t *tcol;    /* each run entry's target column */
    double *tdist;    /* each run entry's backward distance */
} tinv_t;

static void
tinv_free(tinv_t *T)
{
    PyMem_Free(T->tgt);
    PyMem_Free(T->gstart);
    PyMem_Free(T->tcol);
    PyMem_Free(T->tdist);
    PyMem_Free(T);
}

static void
tinv_capsule_free(PyObject *capsule)
{
    tinv_free(PyCapsule_GetPointer(capsule, TINV_NAME));
}

static PyObject *
hubjoin_table_inversion(PyObject *self, PyObject *args)
{
    PyObject *objs[3], *targets_obj;
    long long n;
    if (!PyArg_ParseTuple(args, "OOOLO", &objs[0], &objs[1], &objs[2],
                          &n, &targets_obj)) {
        return NULL;
    }
    side_t B;
    if (side_acquire(objs, bwd_names, &B) < 0) return NULL;
    PyObject *capsule = NULL;
    tinv_t *T = PyMem_Calloc(1, sizeof(tinv_t));
    if (T == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    T->tgt = ids_read(targets_obj, n, "target", "targets must be a sequence",
                      &T->ntgt);
    if (T->tgt == NULL) goto done;
    if (B.head.len != n + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "head column length does not match node count");
        goto done;
    }
    /* Every slice and hub is checked before a run is written, so the
     * join can trust the runs without a bound check per entry. */
    Py_ssize_t total = 0;
    for (Py_ssize_t k = 0; k < T->ntgt; k++) {
        Py_ssize_t lo, hi;
        if (node_slice(&B.head, &B.hub, T->tgt[k], "target", &lo, &hi) < 0) {
            goto done;
        }
        for (Py_ssize_t j = lo; j < hi; j++) {
            int64_t h = col_i(&B.hub, j);
            if (h < 0 || h >= n) {
                PyErr_Format(PyExc_ValueError,
                             "corrupt bwd_hub column at target %lld",
                             (long long)T->tgt[k]);
                goto done;
            }
        }
        total += hi - lo;
    }
    T->n = (Py_ssize_t)n;
    T->gstart = PyMem_Calloc((size_t)n + 1, sizeof(int64_t));
    T->tcol = PyMem_Malloc((size_t)(total ? total : 1) * sizeof(int64_t));
    T->tdist = PyMem_Malloc((size_t)(total ? total : 1) * sizeof(double));
    if (T->gstart == NULL || T->tcol == NULL || T->tdist == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *gstart = T->gstart;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < T->ntgt; k++) {
        Py_ssize_t lo = (Py_ssize_t)col_i(&B.head, T->tgt[k]);
        Py_ssize_t hi = (Py_ssize_t)col_i(&B.head, T->tgt[k] + 1);
        for (Py_ssize_t j = lo; j < hi; j++) {
            gstart[col_i(&B.hub, j) + 1]++;
        }
    }
    for (Py_ssize_t h = 0; h < n; h++) {
        gstart[h + 1] += gstart[h];
    }
    /* Fill the runs; gstart[h] advances to the end of h's run, which
     * is the start of h + 1's, so one pass shifting down rewinds it. */
    for (Py_ssize_t k = 0; k < T->ntgt; k++) {
        Py_ssize_t lo = (Py_ssize_t)col_i(&B.head, T->tgt[k]);
        Py_ssize_t hi = (Py_ssize_t)col_i(&B.head, T->tgt[k] + 1);
        for (Py_ssize_t j = lo; j < hi; j++) {
            int64_t at = gstart[col_i(&B.hub, j)]++;
            T->tcol[at] = k;
            T->tdist[at] = col_d(&B.dist, j);
        }
    }
    for (Py_ssize_t h = n; h > 0; h--) {
        gstart[h] = gstart[h - 1];
    }
    gstart[0] = 0;
    Py_END_ALLOW_THREADS
    capsule = PyCapsule_New(T, TINV_NAME, tinv_capsule_free);
    if (capsule != NULL) T = NULL; /* the capsule owns the runs now */
done:
    if (T != NULL) tinv_free(T);
    side_release(&B);
    return capsule;
}

/* ------------------------------------------------------------------ */
/* distance_table(fhead, fhub, fdist, n, sources, handle)             */
/*   -> [[float, ...], ...]                                           */
/*                                                                    */
/* Stream each source's forward label through the handle's per-hub    */
/* runs with a scatter-min into the row: exactly the pairs the pure   */
/* scan visits, never the dense |entries| x |columns| product.  The   */
/* handle is checked in O(1): its type, and the node count it was     */
/* built for.                                                         */
/* ------------------------------------------------------------------ */
static PyObject *
hubjoin_distance_table(PyObject *self, PyObject *args)
{
    PyObject *objs[3], *sources_obj, *handle;
    long long n;
    if (!PyArg_ParseTuple(args, "OOOLOO", &objs[0], &objs[1], &objs[2],
                          &n, &sources_obj, &handle)) {
        return NULL;
    }
    if (!PyCapsule_IsValid(handle, TINV_NAME)) {
        PyErr_Format(PyExc_TypeError,
                     "handle must come from table_inversion, got '%.200s'",
                     Py_TYPE(handle)->tp_name);
        return NULL;
    }
    const tinv_t *T = PyCapsule_GetPointer(handle, TINV_NAME);
    if (T->n != n) {
        PyErr_Format(PyExc_ValueError,
                     "handle was built for %zd nodes, not %lld", T->n, n);
        return NULL;
    }
    side_t F;
    if (side_acquire(objs, fwd_names, &F) < 0) return NULL;

    PyObject *result = NULL;
    double *flat = NULL;
    Py_ssize_t nsrc = 0, ntgt = T->ntgt;
    int64_t *src = ids_read(sources_obj, n, "source",
                            "sources must be a sequence", &nsrc);
    if (src == NULL) goto done;
    if (F.head.len != n + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "head column length does not match node count");
        goto done;
    }
    for (Py_ssize_t r = 0; r < nsrc; r++) {
        Py_ssize_t lo, hi;
        if (node_slice(&F.head, &F.hub, src[r], "source", &lo, &hi) < 0) {
            goto done;
        }
    }
    Py_ssize_t cells = nsrc * ntgt;
    flat = PyMem_Malloc((size_t)(cells ? cells : 1) * sizeof(double));
    if (flat == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* The argument tuple already holds the handle; this reference is
     * the join's own, so the runs outlive any memo eviction racing it
     * while the GIL is released. */
    Py_INCREF(handle);
    Py_BEGIN_ALLOW_THREADS
    const int64_t *gstart = T->gstart, *tcol = T->tcol;
    const double *tdist = T->tdist;
    for (Py_ssize_t k = 0; k < cells; k++) {
        flat[k] = HUGE_VAL;
    }
    for (Py_ssize_t r = 0; r < nsrc; r++) {
        double *row = flat + r * ntgt;
        Py_ssize_t lo = (Py_ssize_t)col_i(&F.head, src[r]);
        Py_ssize_t hi = (Py_ssize_t)col_i(&F.head, src[r] + 1);
        for (Py_ssize_t i = lo; i < hi; i++) {
            int64_t h = col_i(&F.hub, i);
            if (h < 0 || h >= n) continue;
            double d = col_d(&F.dist, i);
            Py_ssize_t ge = (Py_ssize_t)gstart[h + 1];
            for (Py_ssize_t g = (Py_ssize_t)gstart[h]; g < ge; g++) {
                double cand = d + tdist[g];
                if (cand < row[tcol[g]]) row[tcol[g]] = cand;
            }
        }
        for (Py_ssize_t c = 0; c < ntgt; c++) {
            if (T->tgt[c] == src[r]) row[c] = 0.0;
        }
    }
    Py_END_ALLOW_THREADS
    Py_DECREF(handle);

    result = PyList_New(nsrc);
    if (result == NULL) goto done;
    for (Py_ssize_t r = 0; r < nsrc; r++) {
        PyObject *row = PyList_New(ntgt);
        if (row == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        for (Py_ssize_t c = 0; c < ntgt; c++) {
            PyObject *v = PyFloat_FromDouble(flat[r * ntgt + c]);
            if (v == NULL) {
                Py_DECREF(row);
                Py_CLEAR(result);
                goto done;
            }
            PyList_SET_ITEM(row, c, v);
        }
        PyList_SET_ITEM(result, r, row);
    }

done:
    PyMem_Free(src);
    PyMem_Free(flat);
    side_release(&F);
    return result;
}

/* ------------------------------------------------------------------ */
/* local_search(adj, expand, seeds, free) -> [float, ...]             */
/*                                                                    */
/* The region Dijkstra of AH's level assignment and FC's arterial     */
/* sweep; repro.core.arterial._local_search is its pure reference.    */
/* It runs over the region graph's own rows: adj[i] is a list of      */
/* (j, w) tuples, read in place as node i expands, with no CSR copy.  */
/* Only nodes with a nonzero expand[i] byte, and the source `free`,   */
/* relax their edges; every other reached node is a terminal that     */
/* gets its distance but never enters the heap.                       */
/*                                                                    */
/* Bit-identity: every distance is the same left-to-right `d + w`     */
/* double sum the pure loop forms.  With non-negative weights the     */
/* final distances are the one fixed point of those sums, so heap     */
/* order cannot change a value (ties still break on the node id, as   */
/* heapq does on (d, i) tuples).  Weights and seed distances must be  */
/* non-negative Python floats or ints, so reading them runs no Python */
/* code; a malformed row, seed or expand raises TypeError, IndexError */
/* or ValueError.                                                     */
/* ------------------------------------------------------------------ */
typedef struct {
    double d;
    Py_ssize_t i;
} hent_t;

static inline int
hent_less(const hent_t *a, const hent_t *b)
{
    return a->d < b->d || (a->d == b->d && a->i < b->i);
}

static void
heap_push(hent_t *h, Py_ssize_t *len, double d, Py_ssize_t i)
{
    hent_t e = {d, i};
    Py_ssize_t k = (*len)++;
    while (k > 0) {
        Py_ssize_t parent = (k - 1) / 2;
        if (!hent_less(&e, &h[parent])) break;
        h[k] = h[parent];
        k = parent;
    }
    h[k] = e;
}

static hent_t
heap_pop(hent_t *h, Py_ssize_t *len)
{
    hent_t top = h[0];
    Py_ssize_t n = --(*len);
    if (n == 0) return top;
    hent_t last = h[n];
    Py_ssize_t k = 0;
    for (;;) {
        Py_ssize_t c = 2 * k + 1;
        if (c >= n) break;
        if (c + 1 < n && hent_less(&h[c + 1], &h[c])) c++;
        if (!hent_less(&h[c], &last)) break;
        h[k] = h[c];
        k = c;
    }
    h[k] = last;
    return top;
}

/* The value of an exact int of at most one internal digit, read
 * without a call: the common case of every node id, level and cell the
 * searches read (on DE it saves about a tenth of an AH query's time).
 * 0 leaves the int to the general conversion. */
static inline int
compact_int(PyObject *o, int64_t *out)
{
    if (!PyLong_CheckExact(o)) return 0;
#if PY_VERSION_HEX >= 0x030C0000
    if (!PyUnstable_Long_IsCompact((PyLongObject *)o)) return 0;
    *out = PyUnstable_Long_CompactValue((PyLongObject *)o);
#else
    Py_ssize_t size = Py_SIZE(o);
    if (size < -1 || size > 1) return 0;
    *out = size ? size * (int64_t)((PyLongObject *)o)->ob_digit[0] : 0;
#endif
    return 1;
}

/* A node id: an int in [0, n).  Any other type raises TypeError, any
 * int outside the range (however large) IndexError. */
static int
node_id(PyObject *j, const char *what, Py_ssize_t n, Py_ssize_t *node)
{
    int64_t i;
    if (!compact_int(j, &i)) {
        if (!PyLong_Check(j)) {
            PyErr_Format(PyExc_TypeError,
                         "%s node must be an int, not %.200s",
                         what, Py_TYPE(j)->tp_name);
            return -1;
        }
        i = PyLong_AsSsize_t(j);
        if (i == -1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError)) return -1;
            PyErr_Clear(); /* reported as out of range below */
        }
    }
    if (i < 0 || i >= n) {
        PyErr_Format(PyExc_IndexError, "%s node %R out of range [0, %zd)",
                     what, j, n);
        return -1;
    }
    *node = (Py_ssize_t)i;
    return 0;
}

/* One entry of a row or of the seeds: a tuple of `size` items that
 * starts (node, weight, ...).  The node must lie in [0, n), the weight
 * must be a non-negative float or int. */
static int
entry_unpack(PyObject *e, Py_ssize_t size, const char *shape, Py_ssize_t n,
             const char *what, Py_ssize_t *node, double *weight)
{
    if (!PyTuple_Check(e) || PyTuple_GET_SIZE(e) != size) {
        PyErr_Format(PyExc_TypeError,
                     "%s entries must be %s tuples, not %.200s",
                     what, shape, Py_TYPE(e)->tp_name);
        return -1;
    }
    PyObject *w = PyTuple_GET_ITEM(e, 1);
    if (node_id(PyTuple_GET_ITEM(e, 0), what, n, node) < 0) return -1;
    double x;
    if (PyFloat_Check(w)) {
        x = PyFloat_AS_DOUBLE(w);
    } else if (PyLong_Check(w)) {
        x = PyLong_AsDouble(w);
        if (x == -1.0 && PyErr_Occurred()) return -1;
    } else {
        PyErr_Format(PyExc_TypeError,
                     "%s weight must be a float or int, not %.200s",
                     what, Py_TYPE(w)->tp_name);
        return -1;
    }
    if (!(x >= 0.0)) {
        PyErr_Format(PyExc_ValueError, "%s weight %R is negative or NaN",
                     what, w);
        return -1;
    }
    *weight = x;
    return 0;
}

#define PAIR "(node, weight)"

static PyObject *
hubjoin_local_search(PyObject *self, PyObject *args)
{
    PyObject *adj, *expand_obj, *seeds_obj;
    Py_ssize_t source;
    if (!PyArg_ParseTuple(args, "OOOn", &adj, &expand_obj, &seeds_obj,
                          &source)) {
        return NULL;
    }
    if (!PyList_Check(adj) && !PyTuple_Check(adj)) {
        PyErr_Format(PyExc_TypeError, "adj must be a list of rows, not %.200s",
                     Py_TYPE(adj)->tp_name);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(adj);
    Py_buffer ex;
    if (PyObject_GetBuffer(expand_obj, &ex, PyBUF_SIMPLE) < 0) return NULL;
    if (ex.len != n) {
        PyErr_Format(PyExc_ValueError, "expand holds %zd flags for %zd nodes",
                     ex.len, n);
        PyBuffer_Release(&ex);
        return NULL;
    }
    const unsigned char *expand = ex.buf;
    PyObject *seeds = PySequence_Fast(
        seeds_obj, "seeds must be a sequence of (node, distance) tuples");
    if (seeds == NULL) {
        PyBuffer_Release(&ex);
        return NULL;
    }

    /* Nothing below runs Python code until the result is built, so the
     * borrowed rows and entries stay put.  Each node expands at most
     * once, so the seeds plus every row entry bound the heap. */
    PyObject *result = NULL;
    double *dist = NULL;
    hent_t *heap = NULL;
    PyObject **rows = PySequence_Fast_ITEMS(adj);
    Py_ssize_t nseeds = PySequence_Fast_GET_SIZE(seeds), cap = nseeds, len = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyList_Check(rows[i]) && !PyTuple_Check(rows[i])) {
            PyErr_Format(PyExc_TypeError,
                         "adj[%zd] must be a list of (node, weight) tuples, "
                         "not %.200s", i, Py_TYPE(rows[i])->tp_name);
            goto done;
        }
        cap += PySequence_Fast_GET_SIZE(rows[i]);
    }
    dist = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(double));
    heap = PyMem_Malloc((size_t)(cap ? cap : 1) * sizeof(hent_t));
    if (dist == NULL || heap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        dist[i] = HUGE_VAL;
    }
    PyObject **items = PySequence_Fast_ITEMS(seeds);
    for (Py_ssize_t k = 0; k < nseeds; k++) {
        Py_ssize_t i;
        double d0;
        if (entry_unpack(items[k], 2, PAIR, n, "seed", &i, &d0) < 0) goto done;
        if (d0 < dist[i]) {
            dist[i] = d0;
            if (expand[i] || i == source) heap_push(heap, &len, d0, i);
        }
    }
    while (len > 0) {
        hent_t top = heap_pop(heap, &len);
        double d = top.d;
        if (d > dist[top.i]) continue;
        PyObject *row = rows[top.i];
        Py_ssize_t deg = PySequence_Fast_GET_SIZE(row);
        PyObject **entries = PySequence_Fast_ITEMS(row);
        for (Py_ssize_t k = 0; k < deg; k++) {
            Py_ssize_t j;
            double w;
            if (entry_unpack(entries[k], 2, PAIR, n, "adj", &j, &w) < 0) goto done;
            double nd = d + w;
            if (nd < dist[j]) {
                dist[j] = nd;
                if (expand[j]) heap_push(heap, &len, nd, j);
            }
        }
    }

    result = PyList_New(n);
    if (result == NULL) goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyFloat_FromDouble(dist[i]);
        if (v == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, v);
    }

done:
    PyMem_Free(dist);
    PyMem_Free(heap);
    Py_DECREF(seeds);
    PyBuffer_Release(&ex);
    return result;
}

/* ------------------------------------------------------------------ */
/* ah_query(tables, source, target, want_path, proximity, stall,      */
/*          elevating) -> (float, tuple | None)                       */
/*                                                                    */
/* AH's query; repro.core.ah.AHIndex._query plus                      */
/* repro.baselines.ch.unpack_shortcuts is its pure reference.         */
/* It runs the bidirectional upward search under the rank constraint, */
/* with the proximity test, stall-on-demand and the elevating jumps   */
/* of the pair's separation level, over the tables the index derives  */
/* once and gathers into one tuple, read in place:                    */
/*   (h, up_out, up_in, levels, cell_x, cell_y, anchor_x, anchor_y,   */
/*    jumps_f, jumps_b)                                               */
/* The three flags are the index's query toggles, read per query as   */
/* the pure loop reads them.                                          */
/*                                                                    */
/* It mirrors that loop statement for statement: heap order on        */
/* (d, node) as heapq orders the tuples (no two entries are equal, so */
/* every min-heap pops them alike), peeks that include stale entries, */
/* the `best <= top` stop before each pop, strict `<` updates, and    */
/* the meet test before the stall test and the relaxations.  So the   */
/* distance is == and the packed path (node ids through the meeting   */
/* node, jump chains spliced in as the pure reconstruction splices    */
/* them, shortcuts still packed) is the same list.  With want_path,   */
/* that packed path is then unpacked in the order unpack_shortcuts    */
/* follows, each hop's middle read from the upward rows (ah_hop), and */
/* the node tuple is returned; without it, () stands for a reachable  */
/* target.  No path is None.                                          */
/*                                                                    */
/* Per-call state is a hash map keyed by node id plus two heaps, all  */
/* sized by the nodes the search touches, and the packed path, the    */
/* unpacked path and the unpack's hop stack: stack buffers that grow  */
/* on demand, never an O(n) array, pre-pass or clearing, and nothing  */
/* kept between calls.  Only the rows the search and the unpack read  */
/* are checked: a malformed row, entry, middle, level, cell, anchor   */
/* list or jump chain raises TypeError, IndexError or ValueError.     */
/* ------------------------------------------------------------------ */
#define AH_SLOTS_LOG2 7
#define AH_SLOTS (1 << AH_SLOTS_LOG2)  /* initial map slots */
#define AH_HEAP 64      /* initial entries per heap */
#define AH_PATH 256     /* initial entries per path or hop stack */
#define TRIPLE "(node, weight, middle)"
#define JUMP "(node, weight, chain)"

/* Side 0 is the forward search, side 1 the backward one. */
typedef struct {
    double dist[2];
    Py_ssize_t parent[2];
    PyObject *chain[2];   /* the jump chain that reached the node, or NULL */
    char seen[2];
} ahnode_t;

typedef struct {
    Py_ssize_t *keys;     /* node + 1; 0 marks a free slot */
    ahnode_t *vals;
    Py_ssize_t cap, used;
    int shift;            /* 64 - log2(cap) */
    Py_ssize_t keys0[AH_SLOTS];
    ahnode_t vals0[AH_SLOTS];
} ahmap_t;

typedef struct {
    hent_t *items;
    Py_ssize_t len, cap;
    hent_t items0[AH_HEAP];
} ahheap_t;

typedef struct {
    Py_ssize_t n;
    PyObject **rows[2];    /* up_out and up_in rows */
    PyObject **levels, **cell_x, **cell_y;
    PyObject *anchor[2][2];  /* [side][axis]: the endpoint's anchor list */
    PyObject **jumps[2];   /* the separation level's jump column, or NULL */
    int proximity;
    ahmap_t map;
    ahheap_t heap[2];
} ahq_t;

/* Double a buffer's capacity; it starts in `inline_buf`. */
static int
buf_grow(void **items, Py_ssize_t *cap, void *inline_buf, size_t itemsize)
{
    size_t size = (size_t)*cap * itemsize;
    void *p;
    if (*items == inline_buf) {
        p = PyMem_Malloc(2 * size);
        if (p != NULL) memcpy(p, *items, size);
    } else {
        p = PyMem_Realloc(*items, 2 * size);
    }
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *items = p;
    *cap *= 2;
    return 0;
}

/* The slot holding `node`, or the free slot where it would go. */
static inline Py_ssize_t
ahmap_probe(const ahmap_t *m, Py_ssize_t node)
{
    Py_ssize_t k =
        (Py_ssize_t)(((uint64_t)node * 0x9E3779B97F4A7C15ull) >> m->shift);
    while (m->keys[k] != 0 && m->keys[k] != node + 1) {
        k = (k + 1) & (m->cap - 1);
    }
    return k;
}

static inline ahnode_t *
ahmap_find(const ahmap_t *m, Py_ssize_t node)
{
    Py_ssize_t k = ahmap_probe(m, node);
    return m->keys[k] != 0 ? &m->vals[k] : NULL;
}

/* A fresh entry for `node`, which the map does not hold yet; the map
 * stays at most half full. */
static ahnode_t *
ahmap_add(ahmap_t *m, Py_ssize_t node)
{
    if (2 * (m->used + 1) > m->cap) {
        Py_ssize_t cap = 2 * m->cap;
        Py_ssize_t *keys = PyMem_Calloc((size_t)cap, sizeof(Py_ssize_t));
        ahnode_t *vals = PyMem_Malloc((size_t)cap * sizeof(ahnode_t));
        if (keys == NULL || vals == NULL) {
            PyMem_Free(keys);
            PyMem_Free(vals);
            PyErr_NoMemory();
            return NULL;
        }
        Py_ssize_t *old_keys = m->keys, old_cap = m->cap;
        ahnode_t *old_vals = m->vals;
        m->keys = keys;
        m->vals = vals;
        m->cap = cap;
        m->shift--;
        for (Py_ssize_t k = 0; k < old_cap; k++) {
            if (old_keys[k] != 0) {
                Py_ssize_t at = ahmap_probe(m, old_keys[k] - 1);
                keys[at] = old_keys[k];
                vals[at] = old_vals[k];
            }
        }
        if (old_keys != m->keys0) {
            PyMem_Free(old_keys);
            PyMem_Free(old_vals);
        }
    }
    Py_ssize_t at = ahmap_probe(m, node);
    m->keys[at] = node + 1;
    m->used++;
    ahnode_t *x = &m->vals[at];
    x->seen[0] = x->seen[1] = 0;
    return x;
}

static int
ahheap_push(ahheap_t *h, double d, Py_ssize_t i)
{
    if (h->len == h->cap &&
        buf_grow((void **)&h->items, &h->cap, h->items0, sizeof(hent_t)) < 0) {
        return -1;
    }
    heap_push(h->items, &h->len, d, i);
    return 0;
}

/* A Python int out of a table, as int64. */
static int
read_int(PyObject *o, const char *what, int64_t *out)
{
    if (compact_int(o, out)) return 0;
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.200s",
                     what, Py_TYPE(o)->tp_name);
        return -1;
    }
    long long x = PyLong_AsLongLong(o);
    if (x == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Format(PyExc_ValueError, "%s %R does not fit in 64 bits",
                         what, o);
        }
        return -1;
    }
    *out = x;
    return 0;
}

/* Entry `at` of an anchor list. */
static int
anchor_at(PyObject *anchors, int64_t at, int64_t *out)
{
    if (at < 0 || at >= PyList_GET_SIZE(anchors)) {
        PyErr_Format(PyExc_IndexError,
                     "level %lld outside an anchor list of %zd entries",
                     (long long)at, PyList_GET_SIZE(anchors));
        return -1;
    }
    return read_int(PyList_GET_ITEM(anchors, at), "anchor", out);
}

/* |a - b| <= 2, exactly, for any two int64 values. */
static inline int
within2(int64_t a, int64_t b)
{
    return a >= b ? (uint64_t)a - (uint64_t)b <= 2
                  : (uint64_t)b - (uint64_t)a <= 2;
}

/* Row `u` of a per-node table: a list or tuple of entries. */
static int
row_items(PyObject *row, const char *table, Py_ssize_t u,
          PyObject ***items, Py_ssize_t *len)
{
    if (!PyList_Check(row) && !PyTuple_Check(row)) {
        PyErr_Format(PyExc_TypeError,
                     "%s[%zd] must be a list of entries, not %.200s",
                     table, u, Py_TYPE(row)->tp_name);
        return -1;
    }
    *items = PySequence_Fast_ITEMS(row);
    *len = PySequence_Fast_GET_SIZE(row);
    return 0;
}

/* The proximity test of node v on side s: its own cell lies within two
 * cells of the side's anchor at shift levels[v], on both axes.
 * 1 passes, 0 fails, -1 raised. */
static int
ah_near(const ahq_t *q, int s, Py_ssize_t v)
{
    int64_t lv, c, a;
    if (read_int(q->levels[v], "level", &lv) < 0 ||
        read_int(q->cell_x[v], "cell", &c) < 0 ||
        anchor_at(q->anchor[s][0], lv, &a) < 0) {
        return -1;
    }
    if (!within2(c, a)) return 0;
    if (read_int(q->cell_y[v], "cell", &c) < 0 ||
        anchor_at(q->anchor[s][1], lv, &a) < 0) {
        return -1;
    }
    return within2(c, a);
}

/* Relax u -> v on side s at distance nd: `if (visit[v] != c or nd <
 * dist[v]) and (not proximity or <v passes>)`, then record v's
 * distance, its predecessor and the jump chain (NULL for an edge). */
static int
ah_relax(ahq_t *q, int s, Py_ssize_t u, Py_ssize_t v, double nd,
         PyObject *chain)
{
    ahnode_t *x = ahmap_find(&q->map, v);
    if (x != NULL && x->seen[s] && !(nd < x->dist[s])) return 0;
    if (q->proximity) {
        int near = ah_near(q, s, v);
        if (near <= 0) return near;
    }
    if (x == NULL && (x = ahmap_add(&q->map, v)) == NULL) return -1;
    x->seen[s] = 1;
    x->dist[s] = nd;
    x->parent[s] = u;
    x->chain[s] = chain;
    return ahheap_push(&q->heap[s], nd, v);
}

/* Stall-on-demand: some neighbour over a reverse edge already reaches
 * u on side s by less than d.  1 stalls, 0 does not, -1 raised. */
static int
ah_stalled(const ahq_t *q, int s, Py_ssize_t u, double d)
{
    PyObject **entries;
    Py_ssize_t deg;
    if (row_items(q->rows[1 - s][u], s ? "up_out" : "up_in", u,
                  &entries, &deg) < 0) {
        return -1;
    }
    for (Py_ssize_t k = 0; k < deg; k++) {
        Py_ssize_t v;
        double w;
        if (entry_unpack(entries[k], 3, TRIPLE, q->n, "up", &v, &w) < 0) {
            return -1;
        }
        const ahnode_t *x = ahmap_find(&q->map, v);
        if (x != NULL && x->seen[s] && x->dist[s] + w < d) return 1;
    }
    return 0;
}

/* Expand u on side s: its jump list when the separation level's column
 * holds one, else its upward edges. */
static int
ah_expand(ahq_t *q, int s, Py_ssize_t u, double d)
{
    PyObject *jump = q->jumps[s] != NULL ? q->jumps[s][u] : Py_None;
    PyObject **entries;
    Py_ssize_t deg;
    if (jump == Py_None) {
        if (row_items(q->rows[s][u], s ? "up_in" : "up_out", u,
                      &entries, &deg) < 0) {
            return -1;
        }
        for (Py_ssize_t k = 0; k < deg; k++) {
            Py_ssize_t v;
            double w;
            if (entry_unpack(entries[k], 3, TRIPLE, q->n, "up", &v, &w) < 0 ||
                ah_relax(q, s, u, v, d + w, NULL) < 0) {
                return -1;
            }
        }
        return 0;
    }
    if (row_items(jump, "jumps", u, &entries, &deg) < 0) return -1;
    for (Py_ssize_t k = 0; k < deg; k++) {
        Py_ssize_t v;
        double w;
        if (entry_unpack(entries[k], 3, JUMP, q->n, "jump", &v, &w) < 0) {
            return -1;
        }
        /* The chain is checked only if the packed path splices it in. */
        if (ah_relax(q, s, u, v, d + w, PyTuple_GET_ITEM(entries[k], 2)) < 0) {
            return -1;
        }
    }
    return 0;
}

typedef struct {
    Py_ssize_t *items;
    Py_ssize_t len, cap;
    Py_ssize_t items0[AH_PATH];
} ahpath_t;

static int
path_add(ahpath_t *p, Py_ssize_t node)
{
    if (p->len == p->cap &&
        buf_grow((void **)&p->items, &p->cap, p->items0,
                 sizeof(Py_ssize_t)) < 0) {
        return -1;
    }
    p->items[p->len++] = node;
    return 0;
}

/* Splice in a jump chain that must run first .. last: all but its
 * first node, reversed on the forward side (the pure loop's p[:0:-1],
 * since that walk runs from the meeting node back) and in order on the
 * backward side (p[1:]). */
static int
path_add_chain(ahpath_t *p, PyObject *chain, Py_ssize_t first,
               Py_ssize_t last, int backward, Py_ssize_t n)
{
    Py_ssize_t len = PyTuple_Check(chain) ? PyTuple_GET_SIZE(chain) : 0, a, b;
    if (len < 2) {
        PyErr_Format(PyExc_TypeError,
                     "jump chain must be a tuple of at least two nodes, "
                     "not %.200s", Py_TYPE(chain)->tp_name);
        return -1;
    }
    if (node_id(PyTuple_GET_ITEM(chain, 0), "chain", n, &a) < 0 ||
        node_id(PyTuple_GET_ITEM(chain, len - 1), "chain", n, &b) < 0) {
        return -1;
    }
    if (a != first || b != last) {
        PyErr_Format(PyExc_ValueError,
                     "jump chain %zd .. %zd runs %zd .. %zd",
                     first, last, a, b);
        return -1;
    }
    for (Py_ssize_t i = 1; i < len; i++) {
        Py_ssize_t x;
        if (node_id(PyTuple_GET_ITEM(chain, backward ? i : len - i), "chain",
                    n, &x) < 0 ||
            path_add(p, x) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Side s's predecessor entry of x; each walk step lands on a node the
 * search settled earlier, so a walk takes fewer steps than the map has
 * entries. */
static const ahnode_t *
ah_step(const ahq_t *q, int s, Py_ssize_t x, Py_ssize_t *steps)
{
    const ahnode_t *e = ahmap_find(&q->map, x);
    if (e == NULL || !e->seen[s] || ++*steps > q->map.used) {
        PyErr_SetString(PyExc_ValueError, "parent pointers do not lead back");
        return NULL;
    }
    return e;
}

/* The packed path source .. meet .. target, as the pure loop builds it. */
static int
ah_packed(const ahq_t *q, Py_ssize_t source, Py_ssize_t target,
          Py_ssize_t meet, ahpath_t *p)
{
    Py_ssize_t x = meet, steps = 0;
    while (x != source) {
        const ahnode_t *e = ah_step(q, 0, x, &steps);
        if (e == NULL) return -1;
        if (e->chain[0] != NULL) {  /* runs parent .. x */
            if (path_add_chain(p, e->chain[0], e->parent[0], x, 0, q->n) < 0) {
                return -1;
            }
        } else if (path_add(p, x) < 0) {
            return -1;
        }
        x = e->parent[0];
    }
    if (path_add(p, source) < 0) return -1;
    for (Py_ssize_t i = 0, j = p->len - 1; i < j; i++, j--) {
        Py_ssize_t t = p->items[i];
        p->items[i] = p->items[j];
        p->items[j] = t;
    }
    x = meet;
    steps = 0;
    while (x != target) {
        const ahnode_t *e = ah_step(q, 1, x, &steps);
        if (e == NULL) return -1;
        if (e->chain[1] != NULL) {  /* runs x .. parent */
            if (path_add_chain(p, e->chain[1], x, e->parent[1], 1, q->n) < 0) {
                return -1;
            }
        } else if (path_add(p, e->parent[1]) < 0) {
            return -1;
        }
        x = e->parent[1];
    }
    return 0;
}

/* Hop (a, b) of a packed path: the entry with node b in up_out[a], else
 * the one with node a in up_in[b].  Contraction freezes each edge into
 * the row of its lower-ranked end with the middle the shortcut dict
 * holds for it, and no later shortcut touches a pair with a contracted
 * end, so the rows give the dict's answer.  Every entry read is checked
 * as the search checks the entries it relaxes.  Borrowed; NULL
 * (raised) when neither row holds the hop. */
static PyObject *
ah_hop(const ahq_t *q, Py_ssize_t a, Py_ssize_t b)
{
    Py_ssize_t ends[2] = {a, b};
    for (int s = 0; s < 2; s++) {
        PyObject **entries;
        Py_ssize_t deg;
        if (row_items(q->rows[s][ends[s]], s ? "up_in" : "up_out", ends[s],
                      &entries, &deg) < 0) {
            return NULL;
        }
        for (Py_ssize_t k = 0; k < deg; k++) {
            Py_ssize_t v;
            double w;
            if (entry_unpack(entries[k], 3, TRIPLE, q->n, "up", &v, &w) < 0) {
                return NULL;
            }
            if (v == ends[1 - s]) return entries[k];
        }
    }
    PyErr_Format(PyExc_ValueError,
                 "hop (%zd, %zd) is in neither up_out[%zd] nor up_in[%zd]",
                 a, b, a, b);
    return NULL;
}

/* Unpack the packed path p into out as ch.unpack_shortcuts does: a hop
 * whose middle is None emits b, a middle m pushes (m, b), then (a, m).
 * The hop stack st holds each pending hop as b, then a.  Every pending
 * hop emits at least one node, so once the nodes emitted plus the hops
 * pending pass n the path has more than n nodes and cannot be simple:
 * that raises ValueError, which also stops middles that form a cycle
 * before they can hang the call. */
static int
ah_unpack(const ahq_t *q, const ahpath_t *p, ahpath_t *out, ahpath_t *st)
{
    if (path_add(out, p->items[0]) < 0) return -1;
    for (Py_ssize_t i = p->len - 1; i > 0; i--) {
        if (path_add(st, p->items[i]) < 0 ||
            path_add(st, p->items[i - 1]) < 0) {
            return -1;
        }
    }
    while (st->len) {
        if (out->len + st->len / 2 > q->n) {
            PyErr_Format(PyExc_ValueError,
                         "shortcut middles unpack to more than %zd nodes",
                         q->n);
            return -1;
        }
        Py_ssize_t a = st->items[--st->len];
        Py_ssize_t b = st->items[--st->len];
        PyObject *e = ah_hop(q, a, b);
        if (e == NULL) return -1;
        PyObject *mid = PyTuple_GET_ITEM(e, 2);
        Py_ssize_t m;
        if (mid == Py_None) {
            if (path_add(out, b) < 0) return -1;
        } else if (node_id(mid, "middle", q->n, &m) < 0 ||
                   path_add(st, b) < 0 || path_add(st, m) < 0 ||
                   path_add(st, m) < 0 || path_add(st, a) < 0) {
            return -1;
        }
    }
    return 0;
}

/* A tuple of n node ids; NULL (raised) on failure. */
static PyObject *
node_tuple(const Py_ssize_t *nodes, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL) return NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *v = PyLong_FromSsize_t(nodes[k]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, k, v);
    }
    return out;
}

/* The tables tuple's per-node columns: lists of n entries each. */
static const char *const ah_columns[] = {
    "up_out", "up_in", "levels", "cell_x", "cell_y", "anchor_x", "anchor_y",
};

/* The (distance, nodes) result; steals `nodes`. */
static PyObject *
ah_result(double d, PyObject *nodes)
{
    if (nodes == NULL) return NULL;
    PyObject *dist = PyFloat_FromDouble(d);
    PyObject *out = dist != NULL ? PyTuple_New(2) : NULL;
    if (out == NULL) {
        Py_XDECREF(dist);
        Py_DECREF(nodes);
        return NULL;
    }
    PyTuple_SET_ITEM(out, 0, dist);
    PyTuple_SET_ITEM(out, 1, nodes);
    return out;
}

static PyObject *
hubjoin_ah_query(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "ah_query takes 7 arguments, not %zd",
                     nargs);
        return NULL;
    }
    PyObject *tables = args[0];
    if (!PyTuple_Check(tables)) {
        PyErr_Format(PyExc_TypeError, "tables must be a tuple, not %.200s",
                     Py_TYPE(tables)->tp_name);
        return NULL;
    }
    /* Ids beyond Py_ssize_t clip to its ends and fail the range check. */
    Py_ssize_t source = PyNumber_AsSsize_t(args[1], NULL);
    if (source == -1 && PyErr_Occurred()) return NULL;
    Py_ssize_t target = PyNumber_AsSsize_t(args[2], NULL);
    if (target == -1 && PyErr_Occurred()) return NULL;
    int flag[4];  /* want_path, proximity, stall, elevating */
    for (int k = 0; k < 4; k++) {
        if ((flag[k] = PyObject_IsTrue(args[3 + k])) < 0) return NULL;
    }
    int want_path = flag[0], proximity = flag[1], stall = flag[2];
    int elevating = flag[3];
    if (PyTuple_GET_SIZE(tables) != 10) {
        PyErr_Format(PyExc_ValueError, "tables must hold 10 entries, not %zd",
                     PyTuple_GET_SIZE(tables));
        return NULL;
    }
    PyObject **t = &PyTuple_GET_ITEM(tables, 0);
    int64_t h;
    if (read_int(t[0], "h", &h) < 0) return NULL;
    if (h < 0) {
        PyErr_Format(PyExc_ValueError, "h must not be negative, got %lld",
                     (long long)h);
        return NULL;
    }
    PyObject *cols[7];
    Py_ssize_t n = -1;
    for (int c = 0; c < 7; c++) {
        cols[c] = t[1 + c];
        if (!PyList_Check(cols[c])) {
            PyErr_Format(PyExc_TypeError, "%s must be a list, not %.200s",
                         ah_columns[c], Py_TYPE(cols[c])->tp_name);
            return NULL;
        }
        if (n < 0) n = PyList_GET_SIZE(cols[c]);
        if (PyList_GET_SIZE(cols[c]) != n) {
            PyErr_Format(PyExc_ValueError, "%s holds %zd entries for %zd nodes",
                         ah_columns[c], PyList_GET_SIZE(cols[c]), n);
            return NULL;
        }
    }
    if (source < 0 || source >= n || target < 0 || target >= n) {
        PyErr_Format(PyExc_IndexError,
                     "node pair (%zd, %zd) out of range [0, %zd)",
                     source, target, n);
        return NULL;
    }
    if (source == target) {
        return ah_result(0.0, want_path ? node_tuple(&source, 1)
                                        : PyTuple_New(0));
    }

    ahq_t q;
    q.n = n;
    q.rows[0] = PySequence_Fast_ITEMS(cols[0]);
    q.rows[1] = PySequence_Fast_ITEMS(cols[1]);
    q.levels = PySequence_Fast_ITEMS(cols[2]);
    q.cell_x = PySequence_Fast_ITEMS(cols[3]);
    q.cell_y = PySequence_Fast_ITEMS(cols[4]);
    Py_ssize_t ends[2] = {source, target};
    for (int s = 0; s < 2; s++) {
        for (int axis = 0; axis < 2; axis++) {
            PyObject *a = PyList_GET_ITEM(cols[5 + axis], ends[s]);
            if (!PyList_Check(a)) {
                PyErr_Format(PyExc_TypeError,
                             "%s[%zd] must be a list, not %.200s",
                             ah_columns[5 + axis], ends[s],
                             Py_TYPE(a)->tp_name);
                return NULL;
            }
            q.anchor[s][axis] = a;
        }
    }
    q.jumps[0] = q.jumps[1] = NULL;
    if (elevating) {
        /* The separation level, as ah._separating_level finds it: count
         * down from h while the endpoints' anchors at shift j - 1 lie
         * within two cells of each other on both axes. */
        int64_t j = h;
        while (j > 0) {
            int64_t a, b, c, d;
            if (anchor_at(q.anchor[0][0], j - 1, &a) < 0 ||
                anchor_at(q.anchor[1][0], j - 1, &b) < 0) {
                return NULL;
            }
            if (!within2(a, b)) break;
            if (anchor_at(q.anchor[0][1], j - 1, &c) < 0 ||
                anchor_at(q.anchor[1][1], j - 1, &d) < 0) {
                return NULL;
            }
            if (!within2(c, d)) break;
            j--;
        }
        for (int s = 0; s < 2; s++) {
            PyObject *columns = t[8 + s], *column;
            if (!PyList_Check(columns)) {
                PyErr_Format(PyExc_TypeError, "jumps must be a list, not %.200s",
                             Py_TYPE(columns)->tp_name);
                return NULL;
            }
            if (j >= PyList_GET_SIZE(columns)) {
                PyErr_Format(PyExc_IndexError,
                             "separation level %lld outside %zd jump columns",
                             (long long)j, PyList_GET_SIZE(columns));
                return NULL;
            }
            column = PyList_GET_ITEM(columns, j);
            if (column == Py_None) continue;
            if (!PyList_Check(column) || PyList_GET_SIZE(column) != n) {
                PyErr_Format(PyExc_ValueError,
                             "jump column %lld must be None or a list of %zd "
                             "entries", (long long)j, n);
                return NULL;
            }
            q.jumps[s] = PySequence_Fast_ITEMS(column);
        }
    }
    q.proximity = proximity;
    q.map.keys = q.map.keys0;
    q.map.vals = q.map.vals0;
    q.map.cap = AH_SLOTS;
    q.map.used = 0;
    q.map.shift = 64 - AH_SLOTS_LOG2;
    memset(q.map.keys0, 0, sizeof q.map.keys0);
    for (int s = 0; s < 2; s++) {
        q.heap[s].items = q.heap[s].items0;
        q.heap[s].len = 0;
        q.heap[s].cap = AH_HEAP;
    }
    ahpath_t path, nodes, hops;  /* packed, unpacked, the unpack's stack */
    path.items = path.items0;
    nodes.items = nodes.items0;
    hops.items = hops.items0;
    path.len = nodes.len = hops.len = 0;
    path.cap = nodes.cap = hops.cap = AH_PATH;

    /* Nothing below runs Python code until the result is built, so the
     * borrowed rows, entries, middles and chains stay put. */
    PyObject *result = NULL;
    double best = HUGE_VAL;
    Py_ssize_t best_node = -1;
    for (int s = 0; s < 2; s++) {
        ahnode_t *x = ahmap_add(&q.map, ends[s]);
        x->seen[s] = 1;
        x->dist[s] = 0.0;
        x->parent[s] = -1;
        x->chain[s] = NULL;
        heap_push(q.heap[s].items, &q.heap[s].len, 0.0, ends[s]);
    }
    while (q.heap[0].len || q.heap[1].len) {
        double top_f = q.heap[0].len ? q.heap[0].items[0].d : HUGE_VAL;
        double top_b = q.heap[1].len ? q.heap[1].items[0].d : HUGE_VAL;
        int s = top_f <= top_b ? 0 : 1;
        if (best <= (s ? top_b : top_f)) break;
        hent_t top = heap_pop(q.heap[s].items, &q.heap[s].len);
        double d = top.d;
        Py_ssize_t u = top.i;
        const ahnode_t *x = ahmap_find(&q.map, u);  /* pushed, so held */
        if (d > x->dist[s]) continue;
        if (x->seen[1 - s] && d + x->dist[1 - s] < best) {
            best = d + x->dist[1 - s];
            best_node = u;
        }
        if (stall) {
            int stalled = ah_stalled(&q, s, u, d);
            if (stalled < 0) goto done;
            if (stalled) continue;
        }
        if (ah_expand(&q, s, u, d) < 0) goto done;
    }

    if (best_node < 0) {
        Py_INCREF(Py_None);
        result = ah_result(best, Py_None);
    } else if (!want_path) {
        result = ah_result(best, PyTuple_New(0));
    } else if (ah_packed(&q, source, target, best_node, &path) == 0 &&
               ah_unpack(&q, &path, &nodes, &hops) == 0) {
        result = ah_result(best, node_tuple(nodes.items, nodes.len));
    }

done:
    if (q.map.keys != q.map.keys0) {
        PyMem_Free(q.map.keys);
        PyMem_Free(q.map.vals);
    }
    for (int s = 0; s < 2; s++) {
        if (q.heap[s].items != q.heap[s].items0) PyMem_Free(q.heap[s].items);
    }
    if (path.items != path.items0) PyMem_Free(path.items);
    if (nodes.items != nodes.items0) PyMem_Free(nodes.items);
    if (hops.items != hops.items0) PyMem_Free(hops.items);
    return result;
}

static PyMethodDef hubjoin_methods[] = {
    {"distance", hubjoin_distance, METH_VARARGS,
     "distance(fhead, fhub, fdist, bhead, bhub, bdist, source, target)\n"
     "Two-pointer merge-join of the two sorted label slices."},
    {"one_to_many", hubjoin_one_to_many, METH_VARARGS,
     "one_to_many(fhead, fhub, fdist, bhead, bhub, bdist, n, source, "
     "targets)\nDense hub-indexed gather over the targets' backward "
     "columns."},
    {"table_inversion", hubjoin_table_inversion, METH_VARARGS,
     "table_inversion(bhead, bhub, bdist, n, targets)\nThe targets' "
     "backward entries counting-sorted by hub, as an opaque handle."},
    {"distance_table", hubjoin_distance_table, METH_VARARGS,
     "distance_table(fhead, fhub, fdist, n, sources, handle)\nHub "
     "co-occurrence join over a table_inversion handle with a scatter-min "
     "into the table."},
    {"local_search", hubjoin_local_search, METH_VARARGS,
     "local_search(adj, expand, seeds, free)\n"
     "Region Dijkstra over (j, w) adjacency rows: only expand[i] nodes "
     "and free relax their edges."},
    {"ah_query", (PyCFunction)(void (*)(void))hubjoin_ah_query, METH_FASTCALL,
     "ah_query(tables, source, target, want_path, proximity, stall, "
     "elevating)\nAH's constrained bidirectional upward search over the "
     "index's query tables, then the found path unpacked from the upward "
     "rows: (distance, node tuple, or () without want_path, or None)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hubjoin_module = {
    PyModuleDef_HEAD_INIT,
    "repro.native._hubjoin",
    "Native hub-join kernels over int64/float64 HL label columns, the "
    "AH region search and the AH query.",
    -1,
    hubjoin_methods,
};

PyMODINIT_FUNC
PyInit__hubjoin(void)
{
    PyObject *m = PyModule_Create(&hubjoin_module);
    if (m == NULL) return NULL;
    if (PyModule_AddStringConstant(m, "VERSION", HUBJOIN_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
