/* Fluid state and max-min fair rates of the flow fabric (repro.net.fabric),
 * built as the CPython extension module repro.net._maxmin.
 *
 * One State holds every active flow of one Fabric: its path, rate,
 * remaining bytes and size, in slot arrays; the active flows on each link,
 * in activation order; and the set of links whose flows or capacity
 * changed since the last solve.  A reallocation walks from those links to
 * every coupled flow and runs progressive filling over just those flows.
 *
 * The rates, remaining bytes and completion horizon must equal, bit for
 * bit, those of a textbook progressive filling over every active flow
 * (tests/net/component_reference.py, DESIGN.md section 4n).  So this file
 * is built with -O2 -ffp-contract=off and never -ffast-math, takes the
 * first minimum with a strict '<', subtracts a fixed flow's rate from each
 * of its links once, in path order, with the same clamp, and writes every
 * product and difference as its own operation.
 *
 * The mm_* functions trust their arguments; the Kernel type at the end of
 * this file, the only way in from Python, checks every path id and link
 * index first and raises IndexError without touching the state.  Functions
 * that allocate return -1 (or NULL) when out of memory, and leave the state
 * as it was.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define BYTES_EPS 1e-6 /* flows with fewer remaining bytes are done */

typedef struct {
    int n_links;
    double cap;          /* per-flow rate limit */
    double last_update;  /* time of the last progress update */
    unsigned long long epoch; /* stamp of the current coupled-flow walk */

    /* Per link. */
    double *bandwidth;
    int **flows;         /* active flows crossing the link, activation order */
    int *n_flows, *flows_cap;
    char *dirty;
    int *dirty_list, n_dirty;
    unsigned long long *link_seen;
    /* Solve scratch, per link: residual capacity, unfixed flows, position
       in the share list (-1 outside a solve); the links in first-appearance
       order and their fair shares; the walk's stack. */
    double *residual, *shares;
    int *count, *pos, *links, *stack;

    /* Interned paths: path p is links[path_off[p] .. + path_len[p]). */
    int *path_links, n_path_links, path_links_cap;
    int *path_off, *path_len, n_paths, paths_cap;

    /* Per flow slot. */
    int slots;
    int *path;
    double *rate, *remaining, *nbytes;
    unsigned long long *flow_seen;
    char *fixed;
    int *free_slots, n_free;
    int *active, n_active; /* activation order */
    int *order;            /* the coupled flows of a solve */
    int *finished;         /* the last mm_finish's flows */
} State;

static int grow(void *pp, size_t elem, int n) {
    void *p = realloc(*(void **)pp, elem * (size_t)(n > 0 ? n : 1));
    if (!p) return -1;
    *(void **)pp = p;
    return 0;
}

static void mm_free(State *s) {
    if (!s) return;
    for (int li = 0; li < s->n_links; li++) free(s->flows ? s->flows[li] : NULL);
    void *arrays[] = {
        s->bandwidth, s->flows, s->n_flows, s->flows_cap, s->dirty,
        s->dirty_list, s->link_seen, s->residual, s->shares, s->count, s->pos,
        s->links, s->stack, s->path_links, s->path_off, s->path_len, s->path,
        s->rate, s->remaining, s->nbytes, s->flow_seen, s->fixed,
        s->free_slots, s->active, s->order, s->finished,
    };
    for (size_t i = 0; i < sizeof arrays / sizeof arrays[0]; i++) free(arrays[i]);
    free(s);
}

static State *mm_new(int n_links, const double *bandwidth, double cap) {
    State *s = calloc(1, sizeof *s);
    if (!s) return NULL;
    size_t n = (size_t)n_links + 1;
    s->n_links = n_links;
    s->cap = cap;
    s->bandwidth = malloc(n * sizeof(double));
    s->flows = calloc(n, sizeof(int *));
    s->n_flows = calloc(n, sizeof(int));
    s->flows_cap = calloc(n, sizeof(int));
    s->dirty = calloc(n, 1);
    s->dirty_list = malloc(n * sizeof(int));
    s->link_seen = calloc(n, sizeof(unsigned long long));
    s->residual = malloc(n * sizeof(double));
    s->shares = malloc(n * sizeof(double));
    s->count = malloc(n * sizeof(int));
    s->pos = malloc(n * sizeof(int));
    s->links = malloc(n * sizeof(int));
    s->stack = malloc(n * sizeof(int));
    if (!s->bandwidth || !s->flows || !s->n_flows || !s->flows_cap || !s->dirty
        || !s->dirty_list || !s->link_seen || !s->residual || !s->shares
        || !s->count || !s->pos || !s->links || !s->stack) {
        mm_free(s);
        return NULL;
    }
    memcpy(s->bandwidth, bandwidth, (size_t)n_links * sizeof(double));
    for (int li = 0; li < n_links; li++) s->pos[li] = -1;
    return s;
}

/* Intern a path; returns its id. */
static int mm_add_path(State *s, const int *links, int len) {
    if (s->n_paths == s->paths_cap) {
        int cap = s->paths_cap ? 2 * s->paths_cap : 16;
        if (grow(&s->path_off, sizeof(int), cap) || grow(&s->path_len, sizeof(int), cap))
            return -1;
        s->paths_cap = cap;
    }
    if (s->n_path_links + len > s->path_links_cap) {
        int cap = s->path_links_cap ? 2 * s->path_links_cap : 64;
        while (cap < s->n_path_links + len) cap *= 2;
        if (grow(&s->path_links, sizeof(int), cap)) return -1;
        s->path_links_cap = cap;
    }
    memcpy(s->path_links + s->n_path_links, links, (size_t)len * sizeof(int));
    s->path_off[s->n_paths] = s->n_path_links;
    s->path_len[s->n_paths] = len;
    s->n_path_links += len;
    return s->n_paths++;
}

static void mark_dirty(State *s, int li) {
    if (!s->dirty[li]) {
        s->dirty[li] = 1;
        s->dirty_list[s->n_dirty++] = li;
    }
}

/* Account progress at the current rates up to ``now``. */
static void mm_progress(State *s, double now) {
    double dt = now - s->last_update;
    if (dt > 0) {
        for (int i = 0; i < s->n_active; i++) {
            int f = s->active[i];
            double moved = s->rate[f] * dt;
            s->remaining[f] = s->remaining[f] - moved;
        }
    }
    s->last_update = now;
}

static int grow_slots(State *s) {
    int cap = s->slots ? 2 * s->slots : 16;
    if (grow(&s->path, sizeof(int), cap) || grow(&s->rate, sizeof(double), cap)
        || grow(&s->remaining, sizeof(double), cap) || grow(&s->nbytes, sizeof(double), cap)
        || grow(&s->flow_seen, sizeof(unsigned long long), cap)
        || grow(&s->fixed, 1, cap) || grow(&s->free_slots, sizeof(int), cap)
        || grow(&s->active, sizeof(int), cap) || grow(&s->order, sizeof(int), cap)
        || grow(&s->finished, sizeof(int), cap))
        return -1;
    for (int f = cap - 1; f >= s->slots; f--) {
        s->flow_seen[f] = 0;
        s->free_slots[s->n_free++] = f;
    }
    s->slots = cap;
    return 0;
}

/* Progress to ``now``, then put a flow of ``nbytes`` on path ``p`` on the
   wire, last in activation order; returns its slot. */
static int mm_activate(State *s, double now, int p, double nbytes) {
    const int *links = s->path_links + s->path_off[p];
    int len = s->path_len[p];
    if (!s->n_free && grow_slots(s)) return -1;
    for (int i = 0; i < len; i++) {
        int li = links[i];
        if (s->n_flows[li] + len > s->flows_cap[li]) { /* len: a path may repeat li */
            int cap = s->flows_cap[li] ? 2 * s->flows_cap[li] : 4;
            while (cap < s->n_flows[li] + len) cap *= 2;
            if (grow(&s->flows[li], sizeof(int), cap)) return -1;
            s->flows_cap[li] = cap;
        }
    }
    mm_progress(s, now);
    int f = s->free_slots[--s->n_free];
    s->path[f] = p;
    s->rate[f] = 0.0;
    s->remaining[f] = nbytes;
    s->nbytes[f] = nbytes;
    s->active[s->n_active++] = f;
    for (int i = 0; i < len; i++) {
        int li = links[i];
        s->flows[li][s->n_flows[li]++] = f;
        mark_dirty(s, li);
    }
    return f;
}

/* A link's effective capacity changed. */
static void mm_set_bandwidth(State *s, int li, double bandwidth) {
    s->bandwidth[li] = bandwidth;
    mark_dirty(s, li);
}

/* The active flows reachable from the dirty links through shared links,
   into ``order`` in activation order; clears the dirty set. */
static int coupled_flows(State *s) {
    unsigned long long epoch = ++s->epoch;
    int top = 0, reached = 0;
    for (int i = 0; i < s->n_dirty; i++) {
        int li = s->dirty_list[i];
        s->dirty[li] = 0;
        s->link_seen[li] = epoch;
        s->stack[top++] = li;
    }
    s->n_dirty = 0;
    while (top) {
        int li = s->stack[--top];
        for (int j = 0; j < s->n_flows[li]; j++) {
            int f = s->flows[li][j];
            if (s->flow_seen[f] == epoch) continue;
            s->flow_seen[f] = epoch;
            reached++;
            const int *links = s->path_links + s->path_off[s->path[f]];
            for (int i = 0; i < s->path_len[s->path[f]]; i++) {
                if (s->link_seen[links[i]] != epoch) {
                    s->link_seen[links[i]] = epoch;
                    s->stack[top++] = links[i];
                }
            }
        }
    }
    /* The active list is in activation order: keep the reached flows. */
    int k = 0;
    for (int i = 0; i < s->n_active && k < reached; i++) {
        int f = s->active[i];
        if (s->flow_seen[f] == epoch) s->order[k++] = f;
    }
    return k;
}

/* The position of the first smallest of ``shares[0..nl)``, nl > 0: the
   link a strict '<' scan in position order picks.  The smallest value
   comes from four independent compare chains (one chain is bound by the
   compare's latency), then a second pass finds its first occurrence;
   == makes -0.0 and 0.0 one value, as '<' does. */
static int first_min(const double *shares, int nl) {
    double m0 = INFINITY, m1 = INFINITY, m2 = INFINITY, m3 = INFINITY;
    int i = 0;
    for (; i + 4 <= nl; i += 4) {
        m0 = shares[i] < m0 ? shares[i] : m0;
        m1 = shares[i + 1] < m1 ? shares[i + 1] : m1;
        m2 = shares[i + 2] < m2 ? shares[i + 2] : m2;
        m3 = shares[i + 3] < m3 ? shares[i + 3] : m3;
    }
    for (; i < nl; i++) m0 = shares[i] < m0 ? shares[i] : m0;
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    m0 = m2 < m0 ? m2 : m0;
    for (i = 0; !(shares[i] == m0); i++) {}
    return i;
}

/* Progressive filling over ``order[0..k)``, a union of whole coupled
   components in activation order. */
static void solve(State *s, int k) {
    const int *order = s->order;
    int nl = 0;
    for (int i = 0; i < k; i++) {
        int f = order[i];
        const int *links = s->path_links + s->path_off[s->path[f]];
        for (int m = 0; m < s->path_len[s->path[f]]; m++) {
            int li = links[m];
            if (s->pos[li] < 0) {
                s->pos[li] = nl;
                s->links[nl] = li;
                double r = s->residual[li] = s->bandwidth[li];
                int n = s->count[li] = s->n_flows[li];
                s->shares[nl++] = r / (double)n;
            }
        }
        s->fixed[f] = 0;
    }
    int unfixed = k;
    while (unfixed > 0) {
        int best = first_min(s->shares, nl);
        double rate = s->shares[best];
        if (rate >= s->cap) {
            /* Every remaining flow is rail-limited, not link-limited. */
            for (int i = 0; i < k; i++)
                if (!s->fixed[order[i]]) s->rate[order[i]] = s->cap;
            break;
        }
        int bl = s->links[best];
        for (int j = 0; j < s->n_flows[bl]; j++) {
            int f = s->flows[bl][j];
            if (s->fixed[f]) continue;
            s->fixed[f] = 1;
            unfixed--;
            s->rate[f] = rate;
            const int *links = s->path_links + s->path_off[s->path[f]];
            for (int m = 0; m < s->path_len[s->path[f]]; m++) {
                int li = links[m];
                double r = s->residual[li] - rate;
                if (!(r > 0.0)) r = 0.0; /* max(0.0, r), -0.0 included */
                s->residual[li] = r;
                int n = --s->count[li];
                s->shares[s->pos[li]] = n ? r / (double)n : INFINITY;
            }
        }
    }
    for (int i = 0; i < nl; i++) s->pos[s->links[i]] = -1;
}

/* Re-solve the flows coupled to dirty links; returns the time to the next
   completion at the new rates (NaN with no active flow, INFINITY if no
   flow has a positive rate). */
static double mm_reallocate(State *s) {
    if (s->n_dirty) solve(s, coupled_flows(s));
    if (!s->n_active) return NAN;
    double horizon = INFINITY;
    int found = 0;
    for (int i = 0; i < s->n_active; i++) {
        int f = s->active[i];
        if (s->rate[f] > 0) {
            double h = s->remaining[f] / s->rate[f];
            if (!found || h < horizon) horizon = h;
            found = 1;
        }
    }
    return horizon;
}

static void unlink_flow(State *s, int f) {
    const int *links = s->path_links + s->path_off[s->path[f]];
    for (int m = 0; m < s->path_len[s->path[f]]; m++) {
        int li = links[m], *fl = s->flows[li], n = s->n_flows[li];
        int j = 0;
        while (fl[j] != f) j++;
        memmove(fl + j, fl + j + 1, (size_t)(n - j - 1) * sizeof(int));
        s->n_flows[li] = n - 1;
        mark_dirty(s, li);
    }
    s->free_slots[s->n_free++] = f;
}

/* Progress to ``now`` and take the finished flows off the wire, in
   activation order; with none finished, the flow closest to done (a
   numerical guard).  Returns their number; s->finished lists their slots. */
static int mm_finish(State *s, double now) {
    mm_progress(s, now);
    int n = 0, kept = 0;
    for (int i = 0; i < s->n_active; i++) {
        int f = s->active[i];
        if (s->remaining[f] <= BYTES_EPS * s->nbytes[f])
            s->finished[n++] = f;
        else
            s->active[kept++] = f;
    }
    if (!n && kept) {
        int best = 0;
        for (int i = 1; i < kept; i++)
            if (s->remaining[s->active[i]] < s->remaining[s->active[best]]) best = i;
        s->finished[n++] = s->active[best];
        memmove(s->active + best, s->active + best + 1,
                (size_t)(kept - best - 1) * sizeof(int));
        kept--;
    }
    s->n_active = kept;
    for (int i = 0; i < n; i++) unlink_flow(s, s->finished[i]);
    return n;
}

/* -- The Python binding ---------------------------------------------------
 *
 * One Kernel object owns one State and frees it when it is collected.  Only
 * ints and floats cross: path ids, link indices and slots are ints; times,
 * byte counts, bandwidths and rates are floats.  The hot methods take their
 * arguments without an argument tuple (METH_O, METH_NOARGS, METH_FASTCALL).
 */

typedef struct {
    PyObject_HEAD
    State *s;
    PyObject *weakrefs;
} Kernel;

/* ``o`` as an int in [0, n), else IndexError (TypeError for a non-int). */
static int as_index(PyObject *o, int n, const char *what, int *out) {
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred()) return -1;
    if (v < 0 || v >= n) {
        PyErr_Format(PyExc_IndexError, "%s %ld out of range [0, %d)", what, v, n);
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int as_double(PyObject *o, double *out) {
    double v = PyFloat_AsDouble(o);
    if (v == -1.0 && PyErr_Occurred()) return -1;
    *out = v;
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want) return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static PyObject *Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"bandwidth", "cap", NULL};
    PyObject *arg;
    double cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od:Kernel", kwlist, &arg, &cap))
        return NULL;
    PyObject *seq = PySequence_Fast(arg, "bandwidth must be a sequence of floats");
    if (!seq) return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    Kernel *self = NULL;
    double *bandwidth = n < INT_MAX ? PyMem_Malloc((size_t)(n ? n : 1) * sizeof(double)) : NULL;
    if (!bandwidth) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (as_double(PySequence_Fast_GET_ITEM(seq, i), &bandwidth[i])) goto done;
    self = (Kernel *)type->tp_alloc(type, 0);
    if (self && !(self->s = mm_new((int)n, bandwidth, cap))) {
        Py_CLEAR(self);
        PyErr_NoMemory();
    }
done:
    PyMem_Free(bandwidth);
    Py_DECREF(seq);
    return (PyObject *)self;
}

static void Kernel_dealloc(Kernel *self) {
    if (self->weakrefs) PyObject_ClearWeakRefs((PyObject *)self);
    mm_free(self->s);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *Kernel_add_path(Kernel *self, PyObject *arg) {
    PyObject *seq = PySequence_Fast(arg, "a path must be a sequence of link indices");
    if (!seq) return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    PyObject *result = NULL;
    int *links = len < INT_MAX - self->s->n_path_links
        ? PyMem_Malloc((size_t)(len ? len : 1) * sizeof(int)) : NULL;
    if (!links) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < len; i++)
        if (as_index(PySequence_Fast_GET_ITEM(seq, i), self->s->n_links, "link index", &links[i]))
            goto done;
    int p = mm_add_path(self->s, links, (int)len);
    result = p < 0 ? PyErr_NoMemory() : PyLong_FromLong(p);
done:
    PyMem_Free(links);
    Py_DECREF(seq);
    return result;
}

static PyObject *Kernel_activate(Kernel *self, PyObject *const *args, Py_ssize_t nargs) {
    double now, nbytes;
    int p;
    if (check_nargs("activate", nargs, 3) || as_double(args[0], &now)
        || as_index(args[1], self->s->n_paths, "path id", &p) || as_double(args[2], &nbytes))
        return NULL;
    int f = mm_activate(self->s, now, p, nbytes);
    return f < 0 ? PyErr_NoMemory() : PyLong_FromLong(f);
}

static PyObject *Kernel_set_bandwidth(Kernel *self, PyObject *const *args, Py_ssize_t nargs) {
    int li;
    double bandwidth;
    if (check_nargs("set_bandwidth", nargs, 2)
        || as_index(args[0], self->s->n_links, "link index", &li) || as_double(args[1], &bandwidth))
        return NULL;
    mm_set_bandwidth(self->s, li, bandwidth);
    Py_RETURN_NONE;
}

static PyObject *Kernel_progress(Kernel *self, PyObject *arg) {
    double now;
    if (as_double(arg, &now)) return NULL;
    mm_progress(self->s, now);
    Py_RETURN_NONE;
}

static PyObject *Kernel_reallocate(Kernel *self, PyObject *unused) {
    return PyFloat_FromDouble(mm_reallocate(self->s));
}

static PyObject *Kernel_finish(Kernel *self, PyObject *arg) {
    double now;
    if (as_double(arg, &now)) return NULL;
    int n = mm_finish(self->s, now);
    PyObject *slots = PyTuple_New(n);
    for (int i = 0; slots && i < n; i++) {
        PyObject *slot = PyLong_FromLong(self->s->finished[i]);
        if (!slot) Py_CLEAR(slots);
        else PyTuple_SET_ITEM(slots, i, slot);
    }
    return slots;
}

static PyObject *Kernel_active(Kernel *self, PyObject *unused) {
    State *s = self->s;
    PyObject *flows = PyTuple_New(s->n_active);
    for (int i = 0; flows && i < s->n_active; i++) {
        int f = s->active[i];
        PyObject *flow = Py_BuildValue("(idd)", f, s->rate[f], s->remaining[f]);
        if (!flow) Py_CLEAR(flows);
        else PyTuple_SET_ITEM(flows, i, flow);
    }
    return flows;
}

static PyMethodDef Kernel_methods[] = {
    {"add_path", (PyCFunction)Kernel_add_path, METH_O,
     "add_path(links) -> int: intern a path (link indices); returns its id."},
    {"activate", (PyCFunction)(void (*)(void))Kernel_activate, METH_FASTCALL,
     "activate(now, path_id, nbytes) -> int: progress to now, then put a flow\n"
     "on the wire, last in activation order; returns its slot."},
    {"set_bandwidth", (PyCFunction)(void (*)(void))Kernel_set_bandwidth, METH_FASTCALL,
     "set_bandwidth(link, bandwidth): a link's effective capacity changed."},
    {"progress", (PyCFunction)Kernel_progress, METH_O,
     "progress(now): account progress at the current rates up to now."},
    {"reallocate", (PyCFunction)Kernel_reallocate, METH_NOARGS,
     "reallocate() -> float: re-solve the flows coupled to changed links; the\n"
     "time to the next completion (nan with no flow, inf with no positive rate)."},
    {"finish", (PyCFunction)Kernel_finish, METH_O,
     "finish(now) -> tuple: progress to now and take the finished flows off the\n"
     "wire; their slots in activation order (with none done, the closest flow)."},
    {"active", (PyCFunction)Kernel_active, METH_NOARGS,
     "active() -> tuple: (slot, rate, remaining) of each active flow, in\n"
     "activation order."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net._maxmin.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(bandwidth, cap): the fluid state of one fabric's links\n"
              "(capacities in link order) with per-flow rate limit cap.",
    .tp_weaklistoffset = offsetof(Kernel, weakrefs),
    .tp_methods = Kernel_methods,
    .tp_new = Kernel_new,
};

static int exec_module(PyObject *module) {
    return PyModule_AddType(module, &KernelType);
}

static PyModuleDef_Slot module_slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, .m_name = "_maxmin",
    .m_doc = "The fabric's max-min kernel (repro.net.fabric).", .m_slots = module_slots,
};

PyMODINIT_FUNC PyInit__maxmin(void) {
    return PyModuleDef_Init(&module_def);
}
