/* Compiled CSR kernel. Signatures mirror pgain._pykernels.
 *
 * Arguments are read through the buffer protocol, so building this needs a
 * C compiler and the Python headers only, not numpy's C API. Each
 * buffer's type and shape is checked; the CSR structure is trusted, since
 * Graph() has validated it. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Acquire a 1-d C-contiguous vector of 8-byte items whose format is one of
 * `formats` (numpy writes int64 as "l" or "q", float64 as "d"). */
static int
get_vector(PyObject *obj, Py_buffer *view, const char *name,
           const char *formats, int flags)
{
    if (PyObject_GetBuffer(obj, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format;
    if (view->ndim != 1 || view->itemsize != 8 || f == NULL
            || strlen(f) != 1 || strchr(formats, f[0]) == NULL) {
        PyErr_Format(PyExc_ValueError, "%s must be a 1-d %s array", name,
                     formats[0] == 'd' ? "float64" : "int64");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(spmv_csr_doc,
"spmv_csr(indptr, indices, x, scale, out)\n--\n\n"
"out = scale * (A @ x) for a CSR adjacency with unit values.\n\n"
"Per-row summation is sequential over the (sorted) neighbor list, so the\n"
"result is bit-for-bit reproducible. indptr and indices are int64, x and\n"
"out float64, all contiguous.");

static PyObject *
spmv_csr(PyObject *self, PyObject *args)
{
    static const char *names[4] = {"indptr", "indices", "x", "out"};
    PyObject *obj[4];
    Py_buffer view[4];
    double scale;
    int got = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "OOOdO:spmv_csr",
                          &obj[0], &obj[1], &obj[2], &scale, &obj[3]))
        return NULL;
    for (; got < 4; got++)
        if (get_vector(obj[got], &view[got], names[got], got < 2 ? "lq" : "d",
                       got == 3 ? PyBUF_WRITABLE : 0) < 0)
            goto done;

    const int64_t *indptr = view[0].buf, *indices = view[1].buf;
    const double *x = view[2].buf;
    double *out = view[3].buf;
    Py_ssize_t n = view[0].shape[0] - 1;
    if (n < 0 || indptr[n] != view[1].shape[0]) {
        PyErr_SetString(PyExc_ValueError, "indptr does not span indices");
        goto done;
    }
    if (view[2].shape[0] != n || view[3].shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "x and out need one entry per row");
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        double acc = 0.0;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++)
            acc += x[indices[p]];
        out[i] = scale * acc;
    }
    result = Py_NewRef(Py_None);
done:
    while (got-- > 0)
        PyBuffer_Release(&view[got]);
    return result;
}

static PyMethodDef methods[] = {
    {"spmv_csr", spmv_csr, METH_VARARGS, spmv_csr_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "Compiled CSR kernels. Signatures mirror pgain._pykernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    return PyModule_Create(&module);
}
