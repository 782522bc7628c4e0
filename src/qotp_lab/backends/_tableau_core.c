/* Compiled stabilizer tableau kernel: a plain CPython extension module.
 *
 * CHP tableau (Aaronson-Gottesman, quant-ph/0406196) with the same
 * column-major layout and the same algorithms as the pure-Python kernel
 * (_tableau_pure.py), which is its fallback and the reference the tests
 * compare it against.  For each qubit q there is one X plane and one Z
 * plane whose bit i is the row-i entry, plus one sign plane, laid out over
 * a row capacity C >= n: rows 0..n-1 are destabilizers and rows C..C+n-1
 * stabilizers, and the rows in between stay zero.  Each plane is packed
 * into W = ceil(2C/64) 64-bit words, as Stim packs its tableaus (Gidney,
 * arXiv:2103.02202), and the block holds planes for C qubits, so appending
 * inside the capacity sets two bits per qubit; only a growth past C, which
 * doubles it, moves the stabilizer rows.  Row i represents
 * (-1)^{sign_i} * prod_j letter(x_ij, z_ij) with letter(1,1) = Y.  (The
 * pure kernel also keeps each column's support plane x | z for its scans;
 * here two bit tests per column cost less than keeping it.)
 *
 * Only the public C API is used.  Build with setup.py, or with
 *   cc -O2 -shared -fPIC -I<python include dir> _tableau_core.c \
 *      -o _tableau_core<EXT_SUFFIX>
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef unsigned long long u64;

#define MAX_QUBITS (1 << 24)

static inline int popcount64(u64 v) { return __builtin_popcountll(v); }
static inline int ctz64(u64 v) { return __builtin_ctzll(v); }

static inline int get_bit(const u64 *plane, int i)
{
    return (int)((plane[i >> 6] >> (i & 63)) & 1);
}

static inline void set_bit(u64 *plane, int i)
{
    plane[i >> 6] |= (u64)1 << (i & 63);
}

static inline void put_bit(u64 *plane, int i, int value)
{
    u64 m = (u64)1 << (i & 63);
    plane[i >> 6] = value ? plane[i >> 6] | m : plane[i >> 6] & ~m;
}

/* dst bit (i + shift) |= src bit i, for every i in [lo, hi). */
static void or_shifted(u64 *dst, const u64 *src, int lo, int hi, int shift)
{
    int w;
    for (w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; w++) {
        u64 v = src[w];
        if ((w << 6) < lo)
            v &= ~0ULL << (lo & 63);
        if ((w << 6) + 64 > hi)
            v &= ~0ULL >> (63 - ((hi - 1) & 63));
        for (; v; v &= v - 1)
            set_bit(dst, (w << 6) + ctz64(v) + shift);
    }
}

typedef struct {
    PyObject_HEAD
    int n;
    int cap;        /* row capacity C: stabilizer i is row C + i */
    int W;          /* words per plane */
    u64 *block;     /* the one allocation holding every plane below */
    u64 *xc;        /* C X planes; qubit q's plane is xc + q * W */
    u64 *zc;        /* C Z planes */
    u64 *signs;
    u64 *lo, *hi, *sel;   /* scratch planes for measure and rows */
} Kernel;

#define XP(t, q) ((t)->xc + (size_t)(q) * (t)->W)
#define ZP(t, q) ((t)->zc + (size_t)(q) * (t)->W)

/* Point t at a zeroed block for n qubits in a capacity of cap; t is
 * untouched on failure. */
static int layout(Kernel *t, int n, int cap)
{
    int W = (2 * cap + 63) >> 6;
    u64 *block = PyMem_Calloc((size_t)(2 * cap + 4) * W, sizeof(u64));
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->n = n;
    t->cap = cap;
    t->W = W;
    t->block = block;
    t->xc = block;
    t->zc = block + (size_t)cap * W;
    t->signs = t->zc + (size_t)cap * W;
    t->lo = t->signs + W;
    t->hi = t->lo + W;
    t->sel = t->hi + W;
    return 0;
}

static Kernel *new_kernel(PyTypeObject *type, int n, int cap)
{
    Kernel *t = (Kernel *)type->tp_alloc(type, 0);
    if (t != NULL && layout(t, n, cap) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return t;
}

static void kernel_dealloc(Kernel *t)
{
    PyMem_Free(t->block);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

/* -- argument conversion ---------------------------------------------- */

static int int_arg(PyObject *arg, const char *what, long lo, long hi,
                   int *out)
{
    long v = PyLong_AsLong(arg);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_IndexError, "%s %ld out of range [%ld, %ld]",
                     what, v, lo, hi);
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int qubit_arg(Kernel *t, PyObject *arg, int *q)
{
    return int_arg(arg, "qubit", 0, (long)t->n - 1, q);
}

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* A Python int from nw words, least significant word first. */
static PyObject *words_to_int(const u64 *words, int nw)
{
    static const char digits[] = "0123456789abcdef";
    PyObject *out;
    int w, s;
    char *p, *text = PyMem_Malloc(16 * (size_t)nw + 2);
    if (text == NULL)
        return PyErr_NoMemory();
    p = text;
    *p++ = '0';
    for (w = nw - 1; w >= 0; w--)
        for (s = 60; s >= 0; s -= 4)
            *p++ = digits[(words[w] >> s) & 15];
    *p = '\0';
    out = PyLong_FromString(text, NULL, 16);
    PyMem_Free(text);
    return out;
}

/* -- construction --------------------------------------------------- */

static PyObject *kernel_new(PyTypeObject *type, PyObject *args,
                            PyObject *kwds)
{
    static char *kwlist[] = {"n", NULL};
    int n, q;
    Kernel *t;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "i", kwlist, &n))
        return NULL;
    if (n < 0 || n > MAX_QUBITS) {
        PyErr_Format(PyExc_ValueError, "n must be in [0, %d], got %d",
                     MAX_QUBITS, n);
        return NULL;
    }
    t = new_kernel(type, n, n);
    if (t == NULL)
        return NULL;
    /* Destabilizer i = X_i (row i), stabilizer i = Z_i (row C+i). */
    for (q = 0; q < n; q++) {
        set_bit(XP(t, q), q);
        set_bit(ZP(t, q), n + q);
    }
    return (PyObject *)t;
}

static PyObject *kernel_copy(Kernel *t, PyObject *unused)
{
    Kernel *c = new_kernel(Py_TYPE(t), t->n, t->cap);
    (void)unused;
    if (c != NULL)
        memcpy(c->block, t->block,
               (size_t)(2 * t->cap + 1) * t->W * sizeof(u64));
    return (PyObject *)c;
}

static PyObject *kernel_get_n(Kernel *t, void *unused)
{
    (void)unused;
    return PyLong_FromLong(t->n);
}

/* -- gates -------------------------------------------------------------- */

static PyObject *kernel_h(Kernel *t, PyObject *arg)
{
    int q, w;
    u64 *x, *z, a;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    x = XP(t, q);
    z = ZP(t, q);
    for (w = 0; w < t->W; w++) {
        a = x[w];
        t->signs[w] ^= a & z[w];
        x[w] = z[w];
        z[w] = a;
    }
    Py_RETURN_NONE;
}

static PyObject *kernel_k(Kernel *t, PyObject *arg)
{
    int q, w;
    u64 *x, *z;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    x = XP(t, q);
    z = ZP(t, q);
    for (w = 0; w < t->W; w++) {
        t->signs[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
    Py_RETURN_NONE;
}

static PyObject *kernel_cx(Kernel *t, PyObject *const *args,
                           Py_ssize_t nargs)
{
    int c, g, w;
    u64 *xc, *zc, *xt, *zt;
    if (!nargs_ok("cx", nargs, 2) || qubit_arg(t, args[0], &c) < 0
            || qubit_arg(t, args[1], &g) < 0)
        return NULL;
    xc = XP(t, c);
    zc = ZP(t, c);
    xt = XP(t, g);
    zt = ZP(t, g);
    for (w = 0; w < t->W; w++) {
        t->signs[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
    Py_RETURN_NONE;
}

/* A Pauli flips the sign of every row it anticommutes with: X_q those
 * with a Z at q, Z_q those with an X at q. */
static void flip_signs(Kernel *t, const u64 *plane)
{
    int w;
    for (w = 0; w < t->W; w++)
        t->signs[w] ^= plane[w];
}

static PyObject *kernel_x(Kernel *t, PyObject *arg)
{
    int q;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    flip_signs(t, ZP(t, q));
    Py_RETURN_NONE;
}

static PyObject *kernel_z(Kernel *t, PyObject *arg)
{
    int q;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    flip_signs(t, XP(t, q));
    Py_RETURN_NONE;
}

/* -- rows and columns ----------------------------------------------------- */

static PyObject *row_tuple(Kernel *t, int row)
{
    int j, nw = (t->n + 63) >> 6;
    PyObject *x, *z;
    memset(t->lo, 0, (size_t)nw * sizeof(u64));
    memset(t->hi, 0, (size_t)nw * sizeof(u64));
    for (j = 0; j < t->n; j++) {
        t->lo[j >> 6] |= (u64)get_bit(XP(t, j), row) << (j & 63);
        t->hi[j >> 6] |= (u64)get_bit(ZP(t, j), row) << (j & 63);
    }
    x = words_to_int(t->lo, nw);
    z = x ? words_to_int(t->hi, nw) : NULL;
    if (z == NULL) {
        Py_XDECREF(x);
        return NULL;
    }
    return Py_BuildValue("(NNi)", x, z, get_bit(t->signs, row));
}

static PyObject *kernel_stab_row(Kernel *t, PyObject *arg)
{
    int i;
    if (int_arg(arg, "row", 0, (long)t->n - 1, &i) < 0)
        return NULL;
    return row_tuple(t, t->cap + i);
}

static PyObject *kernel_destab_row(Kernel *t, PyObject *arg)
{
    int i;
    if (int_arg(arg, "row", 0, (long)t->n - 1, &i) < 0)
        return NULL;
    return row_tuple(t, i);
}

/* Qubit q's plane over 2n rows, in t->lo: bit i < n is destabilizer i's
 * entry, bit n + i stabilizer i's. */
static void compact_plane(Kernel *t, const u64 *plane)
{
    memset(t->lo, 0, (size_t)t->W * sizeof(u64));
    or_shifted(t->lo, plane, 0, t->n, 0);
    or_shifted(t->lo, plane, t->cap, t->cap + t->n, t->n - t->cap);
}

static PyObject *kernel_column(Kernel *t, PyObject *arg)
{
    int q, nw;
    PyObject *x, *z;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    nw = (2 * t->n + 63) >> 6;
    compact_plane(t, XP(t, q));
    x = words_to_int(t->lo, nw);
    compact_plane(t, ZP(t, q));
    z = x ? words_to_int(t->lo, nw) : NULL;
    if (z == NULL) {
        Py_XDECREF(x);
        return NULL;
    }
    return Py_BuildValue("(NN)", x, z);
}

/* -- measurement ---------------------------------------------------------- */

/* First stabilizer row with an X at qubit q, or -1 when Z_q commutes
 * with every stabilizer (a deterministic outcome). */
static int first_anticommuting(Kernel *t, int q)
{
    const u64 *x = XP(t, q);
    int w, first = t->cap >> 6;
    for (w = first; w < t->W; w++) {
        u64 v = w == first ? x[w] & (~0ULL << (t->cap & 63)) : x[w];
        if (v)
            return (w << 6) + ctz64(v);
    }
    return -1;
}

/* Bit l of the result is the parity of v's bits below l. */
static inline u64 parity_below(u64 v)
{
    v <<= 1;
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    return v;
}

/* The deterministic outcome: the sign of Z_q as the product of the
 * stabilizer rows selected by the destabilizer X bits at q.  Over the
 * selected rows i, in row order, one column's letters
 * i^{a_i b_i} X^{a_i} Z^{b_i} multiply to the phase
 * sum_i a_i b_i + 2 #{i < l : b_i a_l} (mod 4).  Only the words where the
 * selection is non-zero are read, their indices kept in the lo scratch
 * plane, and a column with no X in the selected rows adds nothing.  Right
 * after a random measurement exactly one row is selected, and its sign is
 * the value. */
static int deterministic_value(Kernel *t, int q)
{
    int i, j, w, nw = 0, below, n = t->n, W = t->W;
    long long acc = 0;
    u64 *sel = t->sel, *words = t->lo;
    memset(sel, 0, (size_t)W * sizeof(u64));
    or_shifted(sel, XP(t, q), 0, n, t->cap);
    for (w = t->cap >> 6; w < W; w++)
        if (sel[w])
            words[nw++] = (u64)w;
    if (nw == 1 && !(sel[words[0]] & (sel[words[0]] - 1)))
        return (t->signs[words[0]] & sel[words[0]]) != 0;
    for (i = 0; i < nw; i++)
        acc += 2 * popcount64(t->signs[words[i]] & sel[words[i]]);
    for (j = 0; j < n; j++) {
        const u64 *x = XP(t, j), *z = ZP(t, j);
        below = 0;  /* parity of the selected Z bits in earlier words */
        for (i = 0; i < nw; i++) {
            u64 xs = x[words[i]] & sel[words[i]];
            u64 zs = z[words[i]] & sel[words[i]];
            if (xs)
                acc += popcount64(xs & zs)
                    + 2 * (popcount64(xs & parity_below(zs))
                           + below * popcount64(xs));
            below ^= popcount64(zs) & 1;
        }
    }
    return (int)((acc >> 1) & 1);
}

static PyObject *kernel_peek(Kernel *t, PyObject *arg)
{
    int q;
    if (qubit_arg(t, arg, &q) < 0)
        return NULL;
    if (first_anticommuting(t, q) >= 0)
        return Py_BuildValue("(Oi)", Py_True, 0);
    return Py_BuildValue("(Oi)", Py_False, deterministic_value(t, q));
}

/* Measure qubit q; returns (bit, is_random).  The second argument is the
 * outcome of a random measurement: an int, or a callable that draws it,
 * called only when the outcome is random.
 *
 * As in the pure kernel, rows p and d = p-C are never in sel, so the row
 * sums row_i <- row_p * row_i for i in sel and the clearing of rows p and
 * d share one loop, each column reading its own row-p bits.  The phase of
 * every row sum is kept as a two-bit accumulator per row (lo, hi) of
 * (|xi&zi| - |xi'&zi'| + 2|zp&xi| + |xp&zp| + 2 rp) mod 4, which ends at 0
 * or 2, so hi is the sign flip.  Only row p's support is visited: a
 * column where row p is clear adds |xi&zi| and then 3|xi&zi| (0 mod 4)
 * and takes no row sum, so it only loses its row-d bits.  The measured
 * qubit is then left a column of its own, as the pure kernel explains:
 * stabilizer p := (-1)^bit Z_q, destabilizer d := X_q, and no other row
 * has support at q. */
static PyObject *kernel_measure(Kernel *t, PyObject *const *args,
                                Py_ssize_t nargs)
{
    int q, p, d, j, w, n = t->n, W = t->W, c1 = 0, c;
    long random_bit;
    u64 *lo = t->lo, *hi = t->hi, *sel = t->sel;
    PyObject *drawn;
    if (!nargs_ok("measure", nargs, 2) || qubit_arg(t, args[0], &q) < 0)
        return NULL;
    p = first_anticommuting(t, q);
    if (p < 0)
        return Py_BuildValue("(iO)", deterministic_value(t, q), Py_False);
    if (PyCallable_Check(args[1])) {
        drawn = PyObject_CallNoArgs(args[1]);
        if (drawn == NULL)
            return NULL;
        random_bit = PyLong_AsLong(drawn);
        Py_DECREF(drawn);
    }
    else
        random_bit = PyLong_AsLong(args[1]);
    if (random_bit == -1 && PyErr_Occurred())
        return NULL;
    d = p - t->cap;
    memcpy(sel, XP(t, q), (size_t)W * sizeof(u64));
    put_bit(sel, p, 0);
    put_bit(sel, d, 0);
    memset(lo, 0, (size_t)W * sizeof(u64));
    memset(hi, 0, (size_t)W * sizeof(u64));
    for (j = 0; j < n; j++) {
        u64 *xp = XP(t, j), *zp = ZP(t, j), x, z, l, h, b, mx, mz;
        int xpj = get_bit(xp, p), zpj = get_bit(zp, p);
        if (!(xpj | zpj)) {  /* no row sum: at most row d to clear */
            put_bit(xp, d, 0);
            put_bit(zp, d, 0);
            continue;
        }
        mx = -(u64)xpj;
        mz = -(u64)zpj;
        for (w = 0; w < W; w++) {
            x = xp[w];
            z = zp[w];
            l = lo[w];
            h = hi[w];
            b = x & z;                          /* + |xi & zi| */
            h ^= l & b;
            l ^= b;
            h ^= x & mz;                        /* + 2 |zp & xi| */
            x ^= sel[w] & mx;
            z ^= sel[w] & mz;
            b = x & z;                          /* - |xi' & zi'| = +3|..| */
            h ^= l & b;
            l ^= b;
            h ^= b;
            xp[w] = x;
            zp[w] = z;
            lo[w] = l;
            hi[w] = h;
        }
        put_bit(xp, d, 0);
        put_bit(zp, d, 0);
        put_bit(xp, p, 0);
        put_bit(zp, p, 0);
        c1 += xpj & zpj;
    }
    /* add the scalar (c1 + 2 rp) mod 4 to every row */
    c = (c1 + 2 * get_bit(t->signs, p)) & 3;
    for (w = 0; w < W; w++) {
        if (c & 1) {
            hi[w] ^= lo[w];
            lo[w] = ~lo[w];
        }
        if (c & 2)
            hi[w] = ~hi[w];
        t->signs[w] ^= hi[w] & sel[w];
    }
    /* the stabilizers with Z at q, times row p, take its sign; then
     * stabilizer p := (-1)^bit Z_q and destabilizer d := X_q */
    random_bit &= 1;
    for (w = t->cap >> 6; random_bit && w < W; w++)
        t->signs[w] ^= ZP(t, q)[w]
            & (w == t->cap >> 6 ? ~0ULL << (t->cap & 63) : ~0ULL);
    memset(XP(t, q), 0, (size_t)W * sizeof(u64));
    memset(ZP(t, q), 0, (size_t)W * sizeof(u64));
    set_bit(XP(t, q), d);
    set_bit(ZP(t, q), p);
    put_bit(t->signs, d, 0);
    put_bit(t->signs, p, (int)random_bit);
    return Py_BuildValue("(lO)", random_bit, Py_True);
}

/* -- resizing ------------------------------------------------------------- */

/* Move the stabilizer rows up to a capacity of cap rows. */
static int regrow(Kernel *t, int cap)
{
    Kernel old = *t;
    int j, n = t->n, shift = cap - t->cap;
    if (layout(t, n, cap) < 0)
        return -1;
    for (j = 0; j < n; j++) {
        or_shifted(XP(t, j), XP(&old, j), 0, n, 0);
        or_shifted(XP(t, j), XP(&old, j), old.cap, old.cap + n, shift);
        or_shifted(ZP(t, j), ZP(&old, j), 0, n, 0);
        or_shifted(ZP(t, j), ZP(&old, j), old.cap, old.cap + n, shift);
    }
    or_shifted(t->signs, old.signs, 0, n, 0);
    or_shifted(t->signs, old.signs, old.cap, old.cap + n, shift);
    PyMem_Free(old.block);
    return 0;
}

static PyObject *kernel_expand(Kernel *t, PyObject *arg)
{
    int k, j, n = t->n, n2, cap;
    if (int_arg(arg, "k", 0, MAX_QUBITS - n, &k) < 0)
        return NULL;
    n2 = n + k;
    if (n2 > t->cap) {
        cap = 2 * t->cap < n2 ? n2 : 2 * t->cap;
        if (regrow(t, cap < MAX_QUBITS ? cap : MAX_QUBITS) < 0)
            return NULL;
    }
    for (j = n; j < n2; j++) {
        set_bit(XP(t, j), j);
        set_bit(ZP(t, j), t->cap + j);
    }
    t->n = n2;
    Py_RETURN_NONE;
}

/* -- type and module ------------------------------------------------------ */

#define FAST(f) (PyCFunction)(void (*)(void))(f)

static PyMethodDef kernel_methods[] = {
    {"copy", (PyCFunction)kernel_copy, METH_NOARGS,
     "An independent copy of the tableau."},
    {"h", (PyCFunction)kernel_h, METH_O, "Hadamard on qubit q."},
    {"k", (PyCFunction)kernel_k, METH_O, "Phase gate K = diag(1, i) on q."},
    {"cx", FAST(kernel_cx), METH_FASTCALL, "CNOT from c to t."},
    {"x", (PyCFunction)kernel_x, METH_O, "Pauli X on qubit q."},
    {"z", (PyCFunction)kernel_z, METH_O, "Pauli Z on qubit q."},
    {"stab_row", (PyCFunction)kernel_stab_row, METH_O,
     "Stabilizer generator i as (xmask, zmask, signbit)."},
    {"destab_row", (PyCFunction)kernel_destab_row, METH_O,
     "Destabilizer i as (xmask, zmask, signbit)."},
    {"column", (PyCFunction)kernel_column, METH_O,
     "Qubit q's (X plane, Z plane): bit i is row i's entry."},
    {"peek", (PyCFunction)kernel_peek, METH_O,
     "(is_random, value): value valid only when deterministic."},
    {"measure", FAST(kernel_measure), METH_FASTCALL,
     "Measure qubit q; returns (bit, is_random).  random_bit is consumed\n"
     "only for random outcomes."},
    {"expand", (PyCFunction)kernel_expand, METH_O,
     "Append k fresh qubits in |0>."},
    {NULL, NULL, 0, NULL}
};

static PyGetSetDef kernel_getset[] = {
    {"n", (getter)kernel_get_n, NULL, "Number of qubits.", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "qotp_lab.backends._tableau_core.TableauKernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "CHP tableau for |0...0> plus Clifford gates and measurement.",
    .tp_methods = kernel_methods,
    .tp_getset = kernel_getset,
    .tp_new = kernel_new,
};

static struct PyModuleDef tableau_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_tableau_core",
    .m_doc = "Compiled stabilizer tableau kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__tableau_core(void)
{
    PyObject *m;
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    m = PyModule_Create(&tableau_module);
    if (m != NULL && PyModule_AddObjectRef(m, "TableauKernel",
                                           (PyObject *)&KernelType) < 0)
        Py_CLEAR(m);
    return m;
}
