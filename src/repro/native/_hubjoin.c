/* _hubjoin: native kernels for the HL query path and the AH build.
 *
 * The three hub-label query kernels as tight C loops over the label
 * columns, reached through the buffer protocol — the module never
 * imports numpy and never copies a column.  Built and loaded indexes
 * hold one layout: int64 heads/hubs (stdlib array('q') or any 8-byte
 * integer buffer) and float64 dists (array('d')); anything else is
 * refused with TypeError.  Beside them, `local_search` is the region
 * Dijkstra of AH's and FC's level assignment, run over the region
 * graph's own (j, w) rows.
 *
 * Bit-identity contract (the repo's standing one): every answer equals
 * the pure-python code bit for bit.  The arithmetic here is the same
 * the pure code performs — candidate sums are single `a + b` double
 * additions, and min over candidates is order-independent for the
 * NaN-free, non-negative values labels and weights hold.
 * `tests/test_backend_parity.py` pins the claim for the HL kernels
 * under hypothesis, native against pure, on built and on loaded
 * indexes; `tests/test_native.py` and `tests/test_levels_reference.py`
 * pin it for the region search.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#define HUBJOIN_VERSION "2"

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

/* The six query-time columns every kernel takes, in hl.py's order. */
typedef struct {
    col_t fhead, fhub, fdist, bhead, bhub, bdist;
    int acquired;
} labels_t;

static void
labels_release(labels_t *L)
{
    if (!L->acquired) return;
    PyBuffer_Release(&L->fhead.view);
    PyBuffer_Release(&L->fhub.view);
    PyBuffer_Release(&L->fdist.view);
    PyBuffer_Release(&L->bhead.view);
    PyBuffer_Release(&L->bhub.view);
    PyBuffer_Release(&L->bdist.view);
    L->acquired = 0;
}

static int
labels_acquire(PyObject *const objs[6], labels_t *L)
{
    col_t *cols[6] = {&L->fhead, &L->fhub, &L->fdist,
                      &L->bhead, &L->bhub, &L->bdist};
    static const char *names[6] = {"fwd_head", "fwd_hub", "fwd_dist",
                                   "bwd_head", "bwd_hub", "bwd_dist"};
    L->acquired = 0;
    for (int i = 0; i < 6; i++) {
        if (col_acquire(objs[i], cols[i], names[i], i % 3 == 2) < 0) {
            for (int j = 0; j < i; j++) {
                PyBuffer_Release(&cols[j]->view);
            }
            return -1;
        }
    }
    L->acquired = 1;
    if (L->fhub.len != L->fdist.len || L->bhub.len != L->bdist.len) {
        labels_release(L);
        PyErr_SetString(PyExc_ValueError,
                        "hub and dist columns differ in length");
        return -1;
    }
    return 0;
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
    if (node_slice(&L.fhead, &L.fhub, source, "source", &i, &iend) < 0 ||
        node_slice(&L.bhead, &L.bhub, target, "target", &j, &jend) < 0) {
        labels_release(&L);
        return NULL;
    }
    double best = HUGE_VAL;
    while (i < iend && j < jend) {
        int64_t a = col_i(&L.fhub, i);
        int64_t b = col_i(&L.bhub, j);
        if (a == b) {
            double d = col_d(&L.fdist, i) + col_d(&L.bdist, j);
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
    PyObject *seq = PySequence_Fast(targets_obj, "targets must be a sequence");
    if (seq == NULL) {
        labels_release(&L);
        return NULL;
    }
    Py_ssize_t ntargets = PySequence_Fast_GET_SIZE(seq);
    int64_t *tgt = PyMem_Malloc((size_t)(ntargets ? ntargets : 1) *
                                sizeof(int64_t));
    double *out = PyMem_Malloc((size_t)(ntargets ? ntargets : 1) *
                               sizeof(double));
    double *dense = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (tgt == NULL || out == NULL || dense == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t k = 0; k < ntargets; k++) {
        long long t = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, k));
        if (t == -1 && PyErr_Occurred()) goto fail;
        if (t < 0 || t >= n) {
            PyErr_Format(PyExc_IndexError, "target %lld out of range",
                         (long long)t);
            goto fail;
        }
        tgt[k] = t;
    }
    Py_ssize_t fs, fe;
    if (node_slice(&L.fhead, &L.fhub, source, "source", &fs, &fe) < 0) {
        goto fail;
    }
    if (L.bhead.len != n + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "bwd_head length does not match node count");
        goto fail;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t u = 0; u < n; u++) {
        dense[u] = HUGE_VAL;
    }
    for (Py_ssize_t k = fs; k < fe; k++) {
        int64_t h = col_i(&L.fhub, k);
        if (h >= 0 && h < n) {
            dense[h] = col_d(&L.fdist, k);
        }
    }
    for (Py_ssize_t k = 0; k < ntargets; k++) {
        int64_t t = tgt[k];
        if (t == source) {
            out[k] = 0.0;
            continue;
        }
        Py_ssize_t lo = (Py_ssize_t)col_i(&L.bhead, t);
        Py_ssize_t hi = (Py_ssize_t)col_i(&L.bhead, t + 1);
        if (lo < 0) lo = 0;
        if (hi > L.bhub.len) hi = L.bhub.len;
        double best = HUGE_VAL;
        for (Py_ssize_t j = lo; j < hi; j++) {
            double d = dense[col_i(&L.bhub, j)] + col_d(&L.bdist, j);
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
        Py_DECREF(seq);
        labels_release(&L);
        return result;
    }
fail:
    PyMem_Free(tgt);
    PyMem_Free(out);
    PyMem_Free(dense);
    Py_DECREF(seq);
    labels_release(&L);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* distance_table(fhead, ..., bdist, n, sources, targets)             */
/*   -> [[float, ...], ...]                                           */
/*                                                                    */
/* Counting-sort the targets' backward entries by hub (the same       */
/* hub -> targets inversion the pure scan memoizes), then stream      */
/* each source's forward label through the per-hub runs with a        */
/* scatter-min into the row — exactly the pairs the pure scan         */
/* visits, never the dense |entries| x |columns| product.             */
/* ------------------------------------------------------------------ */
static PyObject *
hubjoin_distance_table(PyObject *self, PyObject *args)
{
    PyObject *objs[6], *sources_obj, *targets_obj;
    long long n;
    if (!PyArg_ParseTuple(args, "OOOOOOLOO",
                          &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5],
                          &n, &sources_obj, &targets_obj)) {
        return NULL;
    }
    labels_t L;
    if (labels_acquire(objs, &L) < 0) return NULL;

    PyObject *sseq = NULL, *tseq = NULL, *result = NULL;
    int64_t *src = NULL, *tgt = NULL, *gstart = NULL;
    int64_t *tcol = NULL;
    double *tdist = NULL, *flat = NULL;

    sseq = PySequence_Fast(sources_obj, "sources must be a sequence");
    if (sseq == NULL) goto done;
    tseq = PySequence_Fast(targets_obj, "targets must be a sequence");
    if (tseq == NULL) goto done;
    Py_ssize_t nsrc = PySequence_Fast_GET_SIZE(sseq);
    Py_ssize_t ntgt = PySequence_Fast_GET_SIZE(tseq);

    src = PyMem_Malloc((size_t)(nsrc ? nsrc : 1) * sizeof(int64_t));
    tgt = PyMem_Malloc((size_t)(ntgt ? ntgt : 1) * sizeof(int64_t));
    if (src == NULL || tgt == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < nsrc; k++) {
        long long u = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(sseq, k));
        if (u == -1 && PyErr_Occurred()) goto done;
        if (u < 0 || u >= n) {
            PyErr_Format(PyExc_IndexError, "source %lld out of range",
                         (long long)u);
            goto done;
        }
        src[k] = u;
    }
    for (Py_ssize_t k = 0; k < ntgt; k++) {
        long long t = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(tseq, k));
        if (t == -1 && PyErr_Occurred()) goto done;
        if (t < 0 || t >= n) {
            PyErr_Format(PyExc_IndexError, "target %lld out of range",
                         (long long)t);
            goto done;
        }
        tgt[k] = t;
    }
    if (L.fhead.len != n + 1 || L.bhead.len != n + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "head column length does not match node count");
        goto done;
    }

    /* Total backward entries over the target columns. */
    Py_ssize_t ttotal = 0;
    for (Py_ssize_t k = 0; k < ntgt; k++) {
        ttotal += (Py_ssize_t)(col_i(&L.bhead, tgt[k] + 1) -
                               col_i(&L.bhead, tgt[k]));
    }
    /* gstart: per-hub run start (n + 1 slots); tcol/tdist: entries
     * counting-sorted by hub.  All scratch is transient per call. */
    gstart = PyMem_Malloc((size_t)(n + 1) * sizeof(int64_t));
    tcol = PyMem_Malloc((size_t)(ttotal ? ttotal : 1) * sizeof(int64_t));
    tdist = PyMem_Malloc((size_t)(ttotal ? ttotal : 1) * sizeof(double));
    Py_ssize_t cells = nsrc * ntgt;
    flat = PyMem_Malloc((size_t)(cells ? cells : 1) * sizeof(double));
    if (gstart == NULL || tcol == NULL || tdist == NULL || flat == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    Py_BEGIN_ALLOW_THREADS
    memset(gstart, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (Py_ssize_t k = 0; k < ntgt; k++) {
        Py_ssize_t lo = (Py_ssize_t)col_i(&L.bhead, tgt[k]);
        Py_ssize_t hi = (Py_ssize_t)col_i(&L.bhead, tgt[k] + 1);
        for (Py_ssize_t j = lo; j < hi; j++) {
            gstart[col_i(&L.bhub, j) + 1]++;
        }
    }
    for (Py_ssize_t h = 0; h < n; h++) {
        gstart[h + 1] += gstart[h];
    }
    {
        /* Fill runs; gstart temporarily advances to run ends, then is
         * rewound by one whole pass (gstart[h] ends at start of h+1,
         * so shift down). */
        for (Py_ssize_t k = 0; k < ntgt; k++) {
            Py_ssize_t lo = (Py_ssize_t)col_i(&L.bhead, tgt[k]);
            Py_ssize_t hi = (Py_ssize_t)col_i(&L.bhead, tgt[k] + 1);
            for (Py_ssize_t j = lo; j < hi; j++) {
                int64_t h = col_i(&L.bhub, j);
                int64_t at = gstart[h]++;
                tcol[at] = k;
                tdist[at] = col_d(&L.bdist, j);
            }
        }
        for (Py_ssize_t h = n; h > 0; h--) {
            gstart[h] = gstart[h - 1];
        }
        gstart[0] = 0;
    }
    for (Py_ssize_t k = 0; k < cells; k++) {
        flat[k] = HUGE_VAL;
    }
    for (Py_ssize_t r = 0; r < nsrc; r++) {
        double *row = flat + r * ntgt;
        Py_ssize_t lo = (Py_ssize_t)col_i(&L.fhead, src[r]);
        Py_ssize_t hi = (Py_ssize_t)col_i(&L.fhead, src[r] + 1);
        for (Py_ssize_t i = lo; i < hi; i++) {
            int64_t h = col_i(&L.fhub, i);
            double d = col_d(&L.fdist, i);
            Py_ssize_t ge = (Py_ssize_t)gstart[h + 1];
            for (Py_ssize_t g = (Py_ssize_t)gstart[h]; g < ge; g++) {
                double cand = d + tdist[g];
                if (cand < row[tcol[g]]) row[tcol[g]] = cand;
            }
        }
        for (Py_ssize_t c = 0; c < ntgt; c++) {
            if (tgt[c] == src[r]) row[c] = 0.0;
        }
    }
    Py_END_ALLOW_THREADS

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
    PyMem_Free(tgt);
    PyMem_Free(gstart);
    PyMem_Free(tcol);
    PyMem_Free(tdist);
    PyMem_Free(flat);
    Py_XDECREF(sseq);
    Py_XDECREF(tseq);
    labels_release(&L);
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

/* One (node, weight) pair of a row or of the seeds: the node must lie
 * in [0, n), the weight must be a non-negative float or int. */
static int
pair_unpack(PyObject *e, Py_ssize_t n, const char *what,
            Py_ssize_t *node, double *weight)
{
    if (!PyTuple_Check(e) || PyTuple_GET_SIZE(e) != 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s entries must be (node, weight) tuples, not %.200s",
                     what, Py_TYPE(e)->tp_name);
        return -1;
    }
    PyObject *j = PyTuple_GET_ITEM(e, 0), *w = PyTuple_GET_ITEM(e, 1);
    if (!PyLong_Check(j)) {
        PyErr_Format(PyExc_TypeError, "%s node must be an int, not %.200s",
                     what, Py_TYPE(j)->tp_name);
        return -1;
    }
    Py_ssize_t i = PyLong_AsSsize_t(j);
    if (i == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError)) return -1;
        PyErr_Clear(); /* reported as out of range below */
    }
    if (i < 0 || i >= n) {
        PyErr_Format(PyExc_IndexError, "%s node %R out of range [0, %zd)",
                     what, j, n);
        return -1;
    }
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
    *node = i;
    *weight = x;
    return 0;
}

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
        if (pair_unpack(items[k], n, "seed", &i, &d0) < 0) goto done;
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
            if (pair_unpack(entries[k], n, "adj", &j, &w) < 0) goto done;
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

static PyMethodDef hubjoin_methods[] = {
    {"distance", hubjoin_distance, METH_VARARGS,
     "distance(fhead, fhub, fdist, bhead, bhub, bdist, source, target)\n"
     "Two-pointer merge-join of the two sorted label slices."},
    {"one_to_many", hubjoin_one_to_many, METH_VARARGS,
     "one_to_many(fhead, fhub, fdist, bhead, bhub, bdist, n, source, "
     "targets)\nDense hub-indexed gather over the targets' backward "
     "columns."},
    {"distance_table", hubjoin_distance_table, METH_VARARGS,
     "distance_table(fhead, fhub, fdist, bhead, bhub, bdist, n, sources, "
     "targets)\nHub co-occurrence join with a scatter-min into the table."},
    {"local_search", hubjoin_local_search, METH_VARARGS,
     "local_search(adj, expand, seeds, free)\n"
     "Region Dijkstra over (j, w) adjacency rows: only expand[i] nodes "
     "and free relax their edges."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hubjoin_module = {
    PyModuleDef_HEAD_INIT,
    "repro.native._hubjoin",
    "Native hub-join kernels over int64/float64 HL label columns, and "
    "the AH region search.",
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
