/* The draw-free hop chain of the SoA engine, compiled.
 *
 * One `Core` is bound to one `SoAState`: it holds the state's own lists,
 * tuples and calendar dicts (never copies, never the engine) and runs over
 * them the statements `SoAEngine` used to run in Python -- credit returns,
 * link arrivals, the pop / commit / release chain of a hop, the separable
 * allocator, the allocation rounds and the router-major merge walk of a
 * cycle.  Everything a test or a probe reads through `st.*` therefore stays
 * what it was: Python ints in Python lists, `Packet`s in VC lists, event
 * tuples in `cycle -> [events]` dicts.
 *
 * What draws, captures or can be overridden stays Python and is called from
 * here with the arguments, and in the order, the Python bodies used: the
 * routing hooks (looked up by name on the routing instance on every call, so
 * a wrapper installed on the class or the instance later is seen), the
 * capture function, `_open_request`, `_live_request`, `Packet.record_hop`,
 * `metrics.record_*` and `obs.record_*`.  The engine is an argument of the
 * two entry points that need it, not a member: engine -> core is the only
 * edge between the two.
 *
 * Memory safety does not rest on the state being well formed: every list
 * index is bounds-checked, every conversion is checked, and whatever is held
 * across a call into Python is held by a strong reference.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

#if PY_VERSION_HEX < 0x030A0000 /* 3.9: the two 3.10 conveniences used below */
static inline PyObject *
Py_NewRef(PyObject *o)
{
    Py_INCREF(o);
    return o;
}

static inline int
PyModule_AddObjectRef(PyObject *module, const char *name, PyObject *value)
{
    Py_INCREF(value);
    if (PyModule_AddObject(module, name, value) < 0) {
        Py_DECREF(value);
        return -1;
    }
    return 0;
}
#endif

/* Row kinds of `SoAEngine._rows` (soa/engine.py, "Row kinds"). */
#define ROW_FIXED 0
#define ROW_FORCED 1

/* Trigger transcriptions whose closed gate is tested inline. */
#define MECH_OLM 0
#define MECH_BASE 1
#define MECH_ECTN 3

/* Requests per round / occupied heads per router held on the C stack. */
#define STACK_ITEMS 64

/* ------------------------------------------------------------------ names */
#define NAMES(X) \
    X(on_grant) X(on_packet_head) X(on_packet_arrival) X(on_packet_leave_input) \
    X(record_hop) X(is_global) X(current_vc) X(vc) X(size_phits) \
    X(delivered_cycle) X(record_delivery) X(record_dropped) X(metrics) X(obs) \
    X(faults) X(active) X(unsorted) X(counts) X(_draws) X(_capture) \
    X(_open_request) X(_live_request)

#define DECLARE_NAME(n) static PyObject *s_##n;
NAMES(DECLARE_NAME)
static PyObject *kw_is_global; /* ("is_global",) */

/* ------------------------------------------------------------------ slots */
/* The state members the core holds.  `active` and `unsorted` are not among
 * them: the state rebinds those, so they are read through `st` when needed. */
enum member_kind { LIST, DICT, TUPLE };
#define STATE_MEMBERS(X) \
    X(in_q, LIST) X(in_free, LIST) X(head_seen, LIST) X(credits, LIST) \
    X(max_credits, LIST) X(up_g, LIST) X(up_rid, LIST) X(up_lat, LIST) \
    X(out_committed, LIST) X(out_free, LIST) X(link_busy, LIST) X(link_booked, LIST) \
    X(link_lat, LIST) X(ser_fac, LIST) X(down_g, LIST) X(credit_occ, LIST) \
    X(in_ptr, LIST) X(out_ptr, LIST) X(occ, LIST) X(new_heads, LIST) \
    X(alloc_nvc, LIST) X(alloc_clean, LIST) X(active_flag, LIST) X(views, LIST) \
    X(cred_cal, DICT) X(arr_cal, DICT) X(svc_cal, DICT) \
    X(kind_is_injection, TUPLE) X(kind_is_global, TUPLE)

#define SLOT_ENUM(name, kind) S_##name,
enum {
    STATE_MEMBERS(SLOT_ENUM)
    N_STATE,
    S_st = N_STATE,
    S_routing,
    S_rows,
    S_dlv,
    S_drp,
    S_counters,
    N_SLOTS
};
#define SLOT_ENTRY(name, kind) {#name, kind},
static const struct {
    const char *name;
    enum member_kind kind;
} state_members[N_STATE] = {STATE_MEMBERS(SLOT_ENTRY)};

typedef struct {
    PyObject_HEAD
    PyObject *o[N_SLOTS];
    long P, V;
    long speedup, router_latency;
    int mech;
    double threshold; /* counter threshold, or OLM's minimum occupancy */
    int notify_arrival, notify_head, notify_leave;
} Core;

#define L(c, name) ((c)->o[S_##name])

/* ---------------------------------------------------------------- helpers */
static inline PyObject *
item(PyObject *list, Py_ssize_t i) /* borrowed */
{
    if ((size_t)i >= (size_t)PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

static inline int
as_long(PyObject *o, long *out)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static inline int
get_long(PyObject *list, Py_ssize_t i, long *out)
{
    PyObject *o = item(list, i);
    return o == NULL ? -1 : as_long(o, out);
}

static inline int
set_item(PyObject *list, Py_ssize_t i, PyObject *value) /* steals `value` */
{
    PyObject *old;
    if (value == NULL)
        return -1;
    if ((size_t)i >= (size_t)PyList_GET_SIZE(list)) {
        Py_DECREF(value);
        PyErr_SetString(PyExc_IndexError, "list assignment index out of range");
        return -1;
    }
    old = PyList_GET_ITEM(list, i);
    PyList_SET_ITEM(list, i, value);
    Py_DECREF(old);
    return 0;
}

static inline int
set_long(PyObject *list, Py_ssize_t i, long v)
{
    return set_item(list, i, PyLong_FromLong(v));
}

static inline int
set_bool(PyObject *list, Py_ssize_t i, int v)
{
    return set_item(list, i, Py_NewRef(v ? Py_True : Py_False));
}

static inline int
truth(PyObject *o)
{
    if (o == Py_True)
        return 1;
    if (o == Py_False || o == Py_None)
        return 0;
    return PyObject_IsTrue(o);
}

/* Python's `%` for a positive modulus. */
static inline long
pymod(long a, long m)
{
    long r = a % m;
    return r < 0 ? r + m : r;
}

/* Field `i` of an event / request / row tuple (borrowed). */
static inline PyObject *
field(PyObject *t, Py_ssize_t i)
{
    if (!PyTuple_Check(t) || i >= PyTuple_GET_SIZE(t)) {
        PyErr_Format(PyExc_TypeError, "expected a tuple of at least %zd fields, got %R",
                     i + 1, t);
        return NULL;
    }
    return PyTuple_GET_ITEM(t, i);
}

static inline int
field_long(PyObject *t, Py_ssize_t i, long *out)
{
    PyObject *o = field(t, i);
    return o == NULL ? -1 : as_long(o, out);
}

static int
expect_tuple(PyObject *t, Py_ssize_t n, const char *what)
{
    if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != n) {
        PyErr_Format(PyExc_ValueError, "%s must be a tuple of %zd fields, got %R", what, n, t);
        return -1;
    }
    return 0;
}

static int
expect_list(PyObject *o, const char *what)
{
    if (!PyList_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, got %R", what, o);
        return -1;
    }
    return 0;
}

/* `calendar[cycle]` of a `defaultdict(list)` (borrowed; made if missing). */
static PyObject *
bucket(PyObject *calendar, long cycle)
{
    PyObject *key = PyLong_FromLong(cycle);
    PyObject *events;
    if (key == NULL)
        return NULL;
    events = PyDict_GetItemWithError(calendar, key);
    if (events == NULL && !PyErr_Occurred()) {
        events = PyList_New(0);
        if (events != NULL) {
            int failed = PyDict_SetItem(calendar, key, events);
            Py_DECREF(events); /* the calendar holds it now */
            if (failed)
                events = NULL;
        }
    }
    Py_DECREF(key);
    if (events != NULL && expect_list(events, "a calendar bucket") < 0)
        return NULL;
    return events;
}

/* `calendar.pop(cycle, None)`: a new reference, or NULL -- with no error set
 * when there is no such bucket. */
static PyObject *
pop_bucket(PyObject *calendar, PyObject *cycle)
{
    PyObject *events = PyDict_GetItemWithError(calendar, cycle);
    if (events == NULL)
        return NULL;
    Py_INCREF(events);
    if (PyDict_DelItem(calendar, cycle) < 0 || expect_list(events, "a calendar bucket") < 0) {
        Py_DECREF(events);
        return NULL;
    }
    return events;
}

typedef struct {
    long key;
    Py_ssize_t index;
    PyObject *event;
} sort_entry;

static int
compare_entries(const void *a, const void *b)
{
    const sort_entry *x = a, *y = b;
    if (x->key != y->key)
        return x->key < y->key ? -1 : 1;
    return x->index < y->index ? -1 : (x->index > y->index);
}

/* `events.sort(key=itemgetter(0))`: stable, by the port each event starts
 * with (an event may carry a `Packet`, which does not order). */
static int
sort_by_port(PyObject *events)
{
    Py_ssize_t n = PyList_GET_SIZE(events), i;
    sort_entry *entries;
    long previous = 0, key;
    int sorted = 1;
    if (n < 2)
        return 0;
    for (i = 0; i < n; i++) {
        if (field_long(PyList_GET_ITEM(events, i), 0, &key) < 0)
            return -1;
        if (i > 0 && key < previous) {
            sorted = 0;
            break;
        }
        previous = key;
    }
    if (sorted)
        return 0;
    entries = PyMem_Malloc((size_t)n * sizeof(sort_entry));
    if (entries == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++) {
        entries[i].event = PyList_GET_ITEM(events, i);
        entries[i].index = i;
        if (field_long(entries[i].event, 0, &entries[i].key) < 0) {
            PyMem_Free(entries);
            return -1;
        }
    }
    qsort(entries, (size_t)n, sizeof(sort_entry), compare_entries);
    for (i = 0; i < n; i++) /* a permutation: no reference changes hands */
        PyList_SET_ITEM(events, i, entries[i].event);
    PyMem_Free(entries);
    return 0;
}

/* `bisect.insort(keys, k)` on a sorted list of ints. */
static int
insort_key(PyObject *keys, long k)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(keys);
    PyObject *value;
    int failed;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long at;
        if (as_long(PyList_GET_ITEM(keys, mid), &at) < 0)
            return -1;
        if (k < at)
            hi = mid;
        else
            lo = mid + 1;
    }
    value = PyLong_FromLong(k);
    if (value == NULL)
        return -1;
    failed = PyList_Insert(keys, lo, value);
    Py_DECREF(value);
    return failed;
}

/* `keys.remove(k)`. */
static int
remove_key(PyObject *keys, long k)
{
    Py_ssize_t n = PyList_GET_SIZE(keys), i;
    for (i = 0; i < n; i++) {
        long at;
        if (as_long(PyList_GET_ITEM(keys, i), &at) < 0)
            return -1;
        if (at == k)
            return PyList_SetSlice(keys, i, i + 1, NULL);
    }
    PyErr_SetString(PyExc_ValueError, "list.remove(x): x not in list");
    return -1;
}

/* `list.append(v)`. */
static int
append_long(PyObject *list, long v)
{
    PyObject *value = PyLong_FromLong(v);
    int failed;
    if (value == NULL)
        return -1;
    failed = PyList_Append(list, value);
    Py_DECREF(value);
    return failed;
}

static inline PyObject *
call_method(PyObject *name, PyObject **args, size_t nargs)
{
    return PyObject_VectorcallMethod(name, args, nargs, NULL);
}

/* Call for effect. */
static inline int
call_void(PyObject *name, PyObject **args, size_t nargs)
{
    PyObject *result = call_method(name, args, nargs);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* --------------------------------------------------------------- activate */
/* `SoAEngine._activate`; `active` is `st.active` when the caller has it. */
static int
activate(Core *c, long rid, PyObject *active)
{
    PyObject *flag = item(L(c, active_flag), rid);
    int failed, on;
    if (flag == NULL || (on = truth(flag)) < 0)
        return -1;
    if (on)
        return 0;
    if (set_bool(L(c, active_flag), rid, 1) < 0)
        return -1;
    if (active != NULL)
        Py_INCREF(active);
    else if ((active = PyObject_GetAttr(c->o[S_st], s_active)) == NULL)
        return -1;
    failed = expect_list(active, "st.active") < 0 || append_long(active, rid) < 0
             || PyObject_SetAttr(c->o[S_st], s_unsorted, Py_True) < 0;
    Py_DECREF(active);
    return failed ? -1 : 0;
}

/* ---------------------------------------------------------------- credits */
/* `Router.begin_cycle`, credit half: the returns due this cycle. */
static int
apply_credits(Core *c, PyObject *due)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(due); i++) {
        PyObject *event = PyList_GET_ITEM(due, i);
        long rid, g, q, phits, have, occupied, most;
        if (expect_tuple(event, 4, "a credit return") < 0
            || field_long(event, 0, &rid) < 0 || field_long(event, 1, &g) < 0
            || field_long(event, 2, &q) < 0 || field_long(event, 3, &phits) < 0)
            return -1;
        /* Returned credits can unblock waiting heads (and feed the occupancy
         * triggers): re-evaluate allocation. */
        if (set_bool(L(c, alloc_clean), rid, 0) < 0
            || get_long(L(c, credits), q, &have) < 0
            || set_long(L(c, credits), q, have + phits) < 0
            || get_long(L(c, credit_occ), g, &occupied) < 0
            || set_long(L(c, credit_occ), g, occupied - phits) < 0
            || get_long(L(c, max_credits), q, &most) < 0)
            return -1;
        if (have + phits > most) {
            PyErr_Format(PyExc_RuntimeError, "credit overflow on router %ld port %ld vc %ld",
                         rid, g - rid * c->P, q - g * c->V);
            return -1;
        }
    }
    return 0;
}

/* --------------------------------------------------------------- arrivals */
/* One link arrival `(g, vc, packet)`. */
static int
receive(Core *c, PyObject *event, PyObject *cycle_o, PyObject *active)
{
    PyObject *packet, *dq, *size_o;
    long g, vc, rid, port, q, size, free_phits;
    if (expect_tuple(event, 3, "a link arrival") < 0 || field_long(event, 0, &g) < 0
        || field_long(event, 1, &vc) < 0)
        return -1;
    if (g < 0) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    packet = PyTuple_GET_ITEM(event, 2);
    rid = g / c->P;
    port = g % c->P;
    q = g * c->V + vc;
    if ((dq = item(L(c, in_q), q)) == NULL)
        return -1;
    if (dq == Py_None || (PyList_Check(dq) && PyList_GET_SIZE(dq) == 0)) {
        /* A new buffer head: the router has work and must re-evaluate. */
        PyObject *keys, *heads;
        long k = port * c->V + vc;
        if (dq == Py_None) {
            if (set_item(L(c, in_q), q, PyList_New(0)) < 0)
                return -1;
            dq = PyList_GET_ITEM(L(c, in_q), q);
        }
        if ((keys = item(L(c, occ), rid)) == NULL || expect_list(keys, "st.occ[rid]") < 0
            || insort_key(keys, k) < 0 || (heads = item(L(c, new_heads), rid)) == NULL
            || expect_list(heads, "st.new_heads[rid]") < 0 || append_long(heads, k) < 0
            || set_bool(L(c, alloc_clean), rid, 0) < 0 || activate(c, rid, active) < 0)
            return -1;
    }
    if (expect_list(dq, "st.in_q[q]") < 0
        || (size_o = PyObject_GetAttr(packet, s_size_phits)) == NULL)
        return -1;
    if (as_long(size_o, &size) < 0) {
        Py_DECREF(size_o);
        return -1;
    }
    Py_DECREF(size_o);
    if (get_long(L(c, in_free), q, &free_phits) < 0)
        return -1;
    if (free_phits < size) {
        PyErr_Format(PyExc_OverflowError, "VC buffer overflow: %ld phits requested, %ld free",
                     size, free_phits);
        return -1;
    }
    if (PyList_Append(dq, packet) < 0 || set_long(L(c, in_free), q, free_phits - size) < 0)
        return -1;
    if (c->notify_arrival) {
        PyObject *view = item(L(c, views), rid), *port_o = PyLong_FromLong(port);
        PyObject *args[6] = {c->o[S_routing], view, port_o, PyTuple_GET_ITEM(event, 1), packet,
                             cycle_o};
        int failed = view == NULL || port_o == NULL
                     || call_void(s_on_packet_arrival, args, 6) < 0;
        Py_XDECREF(port_o);
        if (failed)
            return -1;
    }
    return 0;
}

/* `Router.begin_cycle`, arrival half: the link arrivals due this cycle. */
static int
apply_arrivals(Core *c, PyObject *due, PyObject *cycle_o, PyObject *active)
{
    Py_ssize_t i;
    /* (router, port) order -- the order the object engine's per-router
     * `begin_cycle` calls fire `on_packet_arrival` in.  A link completes at
     * most one packet per cycle; the sort is stable. */
    if (sort_by_port(due) < 0)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(due); i++) {
        /* Held: the arrival hook may do anything to `due`. */
        PyObject *event = Py_NewRef(PyList_GET_ITEM(due, i));
        int failed = receive(c, event, cycle_o, active);
        Py_DECREF(event);
        if (failed)
            return -1;
    }
    return 0;
}

/* --------------------------------------------------------------- pop head */
/* The input side of a hop, shared by grant and drop: pop the head, free its
 * space, expose the next head, return the upstream credit and fire
 * `on_packet_leave_input`.  Returns the packet (a new reference).  `port_o`
 * and `vc_o` are the Python ints of `port` and `vc`. */
static PyObject *
pop_head(Core *c, long rid, long port, long vc, PyObject *port_o, PyObject *vc_o,
         PyObject *cycle_o, long cycle)
{
    long g = rid * c->P + port, q = g * c->V + vc, k = port * c->V + vc;
    long size, free_phits, up;
    PyObject *dq, *packet, *size_o = NULL, *keys, *up_o;
    if ((dq = item(L(c, in_q), q)) == NULL)
        return NULL;
    if (dq == Py_None) {
        PyErr_SetString(PyExc_AttributeError, "'NoneType' object has no attribute 'pop'");
        return NULL;
    }
    if (expect_list(dq, "st.in_q[q]") < 0)
        return NULL;
    if (PyList_GET_SIZE(dq) == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty list");
        return NULL;
    }
    packet = Py_NewRef(PyList_GET_ITEM(dq, 0));
    if (PyList_SetSlice(dq, 0, 1, NULL) < 0
        || (size_o = PyObject_GetAttr(packet, s_size_phits)) == NULL
        || as_long(size_o, &size) < 0 || get_long(L(c, in_free), q, &free_phits) < 0
        || set_long(L(c, in_free), q, free_phits + size) < 0
        || set_bool(L(c, head_seen), q, 0) < 0
        || (keys = item(L(c, occ), rid)) == NULL || expect_list(keys, "st.occ[rid]") < 0)
        goto error;
    if (PyList_GET_SIZE(dq) == 0) {
        if (remove_key(keys, k) < 0)
            goto error;
    }
    else {
        PyObject *heads = item(L(c, new_heads), rid);
        if (heads == NULL || expect_list(heads, "st.new_heads[rid]") < 0
            || append_long(heads, k) < 0)
            goto error;
    }
    if ((up_o = item(L(c, up_g), g)) == NULL || as_long(up_o, &up) < 0)
        goto error;
    if (up >= 0) {
        long latency;
        PyObject *events, *up_rid_o, *q_o, *event;
        int failed;
        if (get_long(L(c, up_lat), g, &latency) < 0
            || (events = bucket(L(c, cred_cal), cycle + latency)) == NULL
            || (up_rid_o = item(L(c, up_rid), g)) == NULL
            || (q_o = PyLong_FromLong(up * c->V + vc)) == NULL)
            goto error;
        event = PyTuple_Pack(4, up_rid_o, up_o, q_o, size_o);
        Py_DECREF(q_o);
        if (event == NULL)
            goto error;
        failed = PyList_Append(events, event);
        Py_DECREF(event);
        if (failed)
            goto error;
    }
    if (c->notify_leave) {
        PyObject *view = item(L(c, views), rid);
        PyObject *args[6] = {c->o[S_routing], view, port_o, vc_o, packet, cycle_o};
        if (view == NULL || call_void(s_on_packet_leave_input, args, 6) < 0)
            goto error;
    }
    Py_DECREF(size_o);
    return packet;
error:
    Py_XDECREF(size_o);
    Py_DECREF(packet);
    return NULL;
}

/* ----------------------------------------------------------------- commit */
/* `Router._commit_grant`, and the booking of what the grant decides: the
 * packet's release and its downstream arrival. */
static int
commit(Core *c, long rid, PyObject *req, PyObject *cycle_o, long cycle)
{
    PyObject *in_port_o, *in_vc_o, *decision, *size_o, *og_o, *view;
    PyObject *packet = NULL, *vc_o = NULL, *done_o = NULL, *event = NULL, *events;
    long in_port, in_vc, out_port, size, og, cq;
    long free_phits, committed, have, occupied, ready, depart, factor, done, down;
    int flag, failed = -1;
    if (expect_tuple(req, 7, "a request") < 0)
        return -1;
    in_port_o = PyTuple_GET_ITEM(req, 0);
    in_vc_o = PyTuple_GET_ITEM(req, 1);
    size_o = PyTuple_GET_ITEM(req, 3);
    decision = PyTuple_GET_ITEM(req, 4);
    og_o = PyTuple_GET_ITEM(req, 5);
    if (as_long(in_port_o, &in_port) < 0 || as_long(in_vc_o, &in_vc) < 0
        || field_long(req, 2, &out_port) < 0 || as_long(size_o, &size) < 0
        || as_long(og_o, &og) < 0 || field_long(req, 6, &cq) < 0)
        return -1;
    packet = pop_head(c, rid, in_port, in_vc, in_port_o, in_vc_o, cycle_o, cycle);
    if (packet == NULL || (view = item(L(c, views), rid)) == NULL)
        goto done;
    {
        PyObject *args[7] = {c->o[S_routing], view, in_port_o, in_vc_o, packet, decision,
                             cycle_o};
        if (call_void(s_on_grant, args, 7) < 0)
            goto done;
    }
    if ((size_t)out_port >= (size_t)PyTuple_GET_SIZE(L(c, kind_is_injection))) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        goto done;
    }
    if ((flag = truth(PyTuple_GET_ITEM(L(c, kind_is_injection), out_port))) < 0)
        goto done;
    if (!flag) {
        PyObject *args[2] = {packet, PyTuple_GET_ITEM(L(c, kind_is_global), out_port)};
        PyObject *result = PyObject_VectorcallMethod(s_record_hop, args, 1, kw_is_global);
        if (result == NULL)
            goto done;
        Py_DECREF(result);
    }
    if ((vc_o = PyObject_GetAttr(decision, s_vc)) == NULL
        || PyObject_SetAttr(packet, s_current_vc, vc_o) < 0
        || get_long(L(c, out_free), og, &free_phits) < 0)
        goto done;
    if (free_phits < size) {
        PyErr_Format(PyExc_OverflowError, "output buffer over-commit: %ld requested, %ld free",
                     size, free_phits);
        goto done;
    }
    if (get_long(L(c, out_committed), og, &committed) < 0
        || set_long(L(c, out_committed), og, committed + size) < 0
        || set_long(L(c, out_free), og, free_phits - size) < 0
        || get_long(L(c, credits), cq, &have) < 0)
        goto done;
    if (have < size) {
        PyErr_Format(PyExc_RuntimeError, "credit underflow on router %ld port %ld vc %S", rid,
                     out_port, vc_o);
        goto done;
    }
    if (set_long(L(c, credits), cq, have - size) < 0
        || get_long(L(c, credit_occ), og, &occupied) < 0
        || set_long(L(c, credit_occ), og, occupied + size) < 0
        || get_long(L(c, link_booked), og, &depart) < 0)
        goto done;
    /* The packet leaves the pipeline at `ready` and starts on the wire once
     * the packets granted before it are through: ready times are monotone
     * per port and the link is a work-conserving FIFO. */
    ready = cycle + c->router_latency;
    if (depart > ready) {
        /* `object` wakes at `ready` (its pipeline exit) even though the link
         * is still busy: touch that cycle's bucket so the warp horizon sees
         * it and `cycles_skipped` stays equal. */
        if (bucket(L(c, svc_cal), ready) == NULL)
            goto done;
    }
    else
        depart = ready;
    if (get_long(L(c, ser_fac), og, &factor) < 0)
        goto done;
    done = depart + size * factor;
    if ((done_o = PyLong_FromLong(done)) == NULL
        || set_item(L(c, link_booked), og, Py_NewRef(done_o)) < 0
        || get_long(L(c, down_g), og, &down) < 0)
        goto done;
    if (down >= 0) {
        long latency;
        PyObject *down_o = PyList_GET_ITEM(L(c, down_g), og);
        int append_failed;
        if (get_long(L(c, link_lat), og, &latency) < 0
            || (events = bucket(L(c, arr_cal), done + latency)) == NULL
            || (event = PyTuple_Pack(3, down_o, vc_o, packet)) == NULL)
            goto done;
        append_failed = PyList_Append(events, event);
        Py_CLEAR(event);
        if (append_failed)
            goto done;
    }
    /* Only an ejection's release carries its packet. */
    if ((events = bucket(L(c, svc_cal), depart)) == NULL
        || (event = PyTuple_Pack(4, og_o, size_o, done_o, down >= 0 ? Py_None : packet)) == NULL
        || PyList_Append(events, event) < 0)
        goto done;
    failed = 0;
done:
    Py_XDECREF(event);
    Py_XDECREF(done_o);
    Py_XDECREF(vc_o);
    Py_XDECREF(packet);
    return failed;
}

/* ---------------------------------------------------------------- release */
/* What is left of `Router.transmit`: the releases of router `rid`, which
 * start at `due[i]` -- each a packet starting on the wire this cycle;
 * returns the index of the next router's (-1 on error). */
static Py_ssize_t
release(Core *c, PyObject *due, Py_ssize_t i, long rid)
{
    long limit = rid * c->P + c->P;
    while (i < PyList_GET_SIZE(due)) {
        PyObject *event = PyList_GET_ITEM(due, i), *packet;
        long g, size, committed, free_phits;
        if (expect_tuple(event, 4, "a release") < 0 || field_long(event, 0, &g) < 0)
            return -1;
        if (g >= limit)
            break;
        i++;
        packet = PyTuple_GET_ITEM(event, 3);
        if (field_long(event, 1, &size) < 0
            || get_long(L(c, out_committed), g, &committed) < 0
            || set_long(L(c, out_committed), g, committed - size) < 0
            || get_long(L(c, out_free), g, &free_phits) < 0
            || set_long(L(c, out_free), g, free_phits + size) < 0
            || set_item(L(c, link_busy), g, Py_NewRef(PyTuple_GET_ITEM(event, 2))) < 0)
            return -1;
        if (packet != Py_None) {
            /* Only now, not at the grant: `Packet.delivered` must not read
             * true for a packet still inside the router. */
            if (PyObject_SetAttr(packet, s_delivered_cycle, PyTuple_GET_ITEM(event, 2)) < 0
                || PyList_Append(c->o[S_dlv], packet) < 0)
                return -1;
        }
    }
    /* Freed output space can admit waiting heads (and lowers the occupancy
     * triggers): re-evaluate allocation. */
    if (set_bool(L(c, alloc_clean), rid, 0) < 0)
        return -1;
    return i;
}

/* -------------------------------------------------------------- allocator */
/* `RoundRobinArbiter.arbitrate` is the minimum of `(client - pointer) mod
 * num_clients` over the in-range clients; the two stages below inline it. */

/* `SeparableAllocator.allocate` over the flat pointer arrays, for `n`
 * requests given by field: the indices of the granted ones go to `grants`
 * in grant order; returns how many, -1 on error. */
static Py_ssize_t
alloc_round(Core *c, long rid, long base, Py_ssize_t n, const long *in_port, const long *vc,
            const long *out_port, Py_ssize_t *grants)
{
    PyObject *in_ptr = L(c, in_ptr), *out_ptr = L(c, out_ptr);
    Py_ssize_t stack_winners[STACK_ITEMS], *winners = stack_winners;
    char stack_seen[STACK_ITEMS], *seen = stack_seen;
    Py_ssize_t i, j, num_winners = 0, num_grants = 0;
    long P = c->P, nvc, pointer;
    int distinct = 1;
    if (get_long(L(c, alloc_nvc), rid, &nvc) < 0)
        return -1;
    if (nvc <= 0 || P <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
        return -1;
    }
    for (i = 1; i < n && distinct; i++)
        for (j = 0; j < i; j++)
            if (in_port[i] == in_port[j] || out_port[i] == out_port[j]) {
                distinct = 0;
                break;
            }
    if (distinct) {
        /* Nothing to arbitrate: every request wins, the pointers rotate. */
        for (i = 0; i < n; i++) {
            if (set_long(in_ptr, base + in_port[i], pymod(vc[i] + 1, nvc)) < 0
                || set_long(out_ptr, base + out_port[i], pymod(in_port[i] + 1, P)) < 0)
                return -1;
            grants[i] = i;
        }
        return n;
    }
    if (n > STACK_ITEMS) {
        winners = PyMem_Malloc((size_t)n * (sizeof(Py_ssize_t) + 1));
        if (winners == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        seen = (char *)(winners + n);
    }
    /* Input stage: per input port, in first-request order, the VC closest
     * after the port's pointer.  A later request of the same (port, VC)
     * replaces the earlier one, as the dict keyed by VC did. */
    memset(seen, 0, (size_t)n);
    for (i = 0; i < n; i++) {
        Py_ssize_t best = -1;
        long best_distance = nvc;
        if (seen[i])
            continue;
        if (get_long(in_ptr, base + in_port[i], &pointer) < 0)
            goto error;
        for (j = i; j < n; j++) {
            long distance;
            if (in_port[j] != in_port[i])
                continue;
            seen[j] = 1;
            if (vc[j] < 0 || vc[j] >= nvc)
                continue;
            distance = vc[j] - pointer;
            if (distance < 0)
                distance += nvc;
            if (distance < best_distance || (best >= 0 && vc[j] == vc[best])) {
                best_distance = distance;
                best = j;
            }
        }
        if (best < 0)
            continue;
        if (set_long(in_ptr, base + in_port[i], pymod(vc[best] + 1, nvc)) < 0)
            goto error;
        winners[num_winners++] = best;
    }
    /* Output stage: per output port, in first-proposal order, the input
     * port closest after the port's pointer. */
    memset(seen, 0, (size_t)num_winners);
    for (i = 0; i < num_winners; i++) {
        Py_ssize_t best = -1;
        long best_distance = P, port = out_port[winners[i]];
        if (seen[i])
            continue;
        if (get_long(out_ptr, base + port, &pointer) < 0)
            goto error;
        for (j = i; j < num_winners; j++) {
            long client = in_port[winners[j]], distance;
            if (out_port[winners[j]] != port)
                continue;
            seen[j] = 1;
            if (client < 0 || client >= P)
                continue;
            distance = client - pointer;
            if (distance < 0)
                distance += P;
            if (distance < best_distance) {
                best_distance = distance;
                best = winners[j];
            }
        }
        if (best < 0)
            continue;
        if (set_long(out_ptr, base + port, pymod(in_port[best] + 1, P)) < 0)
            goto error;
        grants[num_grants++] = best;
    }
    if (winners != stack_winners)
        PyMem_Free(winners);
    return num_grants;
error:
    if (winners != stack_winners)
        PyMem_Free(winners);
    return -1;
}

/* --------------------------------------------------------------- allocate */
/* `Router.allocate`: report new heads, then the allocation rounds, each head
 * answering with the request of its captured row ("Row kinds" in
 * soa/engine.py). */

/* One new head, buffer key `k_o`: `on_packet_head` if the mechanism has one,
 * then the capture function if one is bound (`capture` is not `None`). */
static int
report_head(Core *c, PyObject *engine, PyObject *capture, long rid, PyObject *rid_o,
            PyObject *base_o, PyObject *k_o, PyObject *cycle_o)
{
    long k, q;
    PyObject *seen, *dq, *head, *view;
    int on, failed = 0;
    if (as_long(k_o, &k) < 0)
        return -1;
    q = rid * c->P * c->V + k;
    if ((seen = item(L(c, head_seen), q)) == NULL || (on = truth(seen)) < 0)
        return -1;
    if (on)
        return 0;
    if ((dq = item(L(c, in_q), q)) == NULL || (view = item(L(c, views), rid)) == NULL)
        return -1;
    /* Empty only under faults (a head dropped and its successor granted
     * within one cycle), where nothing is captured. */
    head = PyList_Check(dq) && PyList_GET_SIZE(dq) > 0 ? PyList_GET_ITEM(dq, 0) : Py_None;
    Py_INCREF(head);
    if (c->notify_head) {
        PyObject *port_o = PyLong_FromLong(k / c->V), *vc_o = PyLong_FromLong(k % c->V);
        PyObject *args[6] = {c->o[S_routing], view, port_o, vc_o, head, cycle_o};
        failed = port_o == NULL || vc_o == NULL || call_void(s_on_packet_head, args, 6) < 0;
        Py_XDECREF(port_o);
        Py_XDECREF(vc_o);
    }
    if (!failed)
        failed = set_bool(L(c, head_seen), q, 1) < 0;
    if (!failed && capture != Py_None) {
        PyObject *q_o = PyLong_FromLong(q), *result = NULL;
        if (q_o != NULL) {
            PyObject *args[7] = {engine, rid_o, base_o, q_o, k_o, head, cycle_o};
            result = PyObject_Vectorcall(capture, args, 7, NULL);
        }
        failed = result == NULL;
        Py_XDECREF(result);
        Py_XDECREF(q_o);
    }
    Py_DECREF(head);
    return failed ? -1 : 0;
}

/* `new_heads` is recorded unconditionally (the captures need every head);
 * the hook calls -- and only those -- stay gated, as in the object model. */
static int
report_new_heads(Core *c, PyObject *engine, long rid, PyObject *rid_o, PyObject *heads,
                 PyObject *cycle_o)
{
    PyObject *capture, *base_o;
    Py_ssize_t i;
    int failed = 0;
    if (PyList_GET_SIZE(heads) > 1 && PyList_Sort(heads) < 0)
        return -1;
    if ((capture = PyObject_GetAttr(engine, s__capture)) == NULL)
        return -1;
    if ((base_o = PyLong_FromLong(rid * c->P)) == NULL) {
        Py_DECREF(capture);
        return -1;
    }
    for (i = 0; !failed && i < PyList_GET_SIZE(heads); i++) {
        PyObject *k_o = Py_NewRef(PyList_GET_ITEM(heads, i));
        failed = report_head(c, engine, capture, rid, rid_o, base_o, k_o, cycle_o);
        Py_DECREF(k_o);
    }
    if (!failed)
        failed = PyList_SetSlice(heads, 0, PyList_GET_SIZE(heads), NULL);
    Py_DECREF(base_o);
    Py_DECREF(capture);
    return failed ? -1 : 0;
}

/* `engine._draws == draws0`: 1 / 0, -1 on error. */
static int
draws_unchanged(PyObject *engine, PyObject *draws0)
{
    PyObject *draws = PyObject_GetAttr(engine, s__draws);
    int same;
    if (draws == NULL)
        return -1;
    same = PyObject_RichCompareBool(draws, draws0, Py_EQ);
    Py_DECREF(draws);
    return same;
}


/* One head's request for this round (a new reference; `None`: no request). */
static PyObject *
head_request(Core *c, PyObject *engine, long rid, PyObject *rid_o, PyObject *base_o, long k,
             PyObject *cycle_o, long round_index, PyObject **counts)
{
    long base_g = rid * c->P, q = base_g * c->V + k, kind;
    PyObject *row = item(c->o[S_rows], q);
    if (row == NULL)
        return NULL;
    if (row == Py_None) {
        /* Only here can a key of `occupied` have lost its head without a
         * grant: `_resolve_faults` drops heads, and with faults attached
         * nothing is captured.  The head is read fresh for the same reason:
         * a drop while round 1 gathers requests lets round 2 meet a
         * successor no `on_packet_head` was called for yet (it is reported
         * next cycle, as in the object model). */
        PyObject *dq = item(L(c, in_q), q), *req = NULL;
        PyObject *head, *q_o, *k_o, *round_o;
        if (dq == NULL)
            return NULL;
        if (!PyList_Check(dq) || PyList_GET_SIZE(dq) == 0)
            return Py_NewRef(Py_None);
        head = Py_NewRef(PyList_GET_ITEM(dq, 0));
        q_o = PyLong_FromLong(q);
        k_o = PyLong_FromLong(k);
        round_o = PyLong_FromLong(round_index);
        if (q_o != NULL && k_o != NULL && round_o != NULL) {
            PyObject *args[8] = {engine, rid_o, base_o, q_o, k_o, head, cycle_o, round_o};
            req = call_method(s__live_request, args, 8);
        }
        Py_XDECREF(round_o);
        Py_XDECREF(k_o);
        Py_XDECREF(q_o);
        Py_DECREF(head);
        return req;
    }
    if (field_long(row, 0, &kind) < 0 || field(row, 1) == NULL)
        return NULL;
    if (kind == ROW_FIXED)
        return Py_NewRef(PyTuple_GET_ITEM(row, 1));
    /* Closed gate (a counter or occupancy comparison against the captured
     * minimal port): the draw-free minimal fallback, exactly what the
     * trigger would answer. */
    if (kind != ROW_FORCED && c->mech != -1) {
        long minimal;
        int closed = 0;
        if (field(row, 6) == NULL || field_long(row, 2, &minimal) < 0)
            return NULL;
        if (c->mech == MECH_BASE || c->mech == MECH_ECTN) {
            if (PyTuple_GET_ITEM(row, 6) == Py_None) {
                long count;
                if (*counts == NULL) {
                    PyObject *tracker = item(c->o[S_counters], rid);
                    if (tracker == NULL
                        || (*counts = PyObject_GetAttr(tracker, s_counts)) == NULL
                        || expect_list(*counts, "a counter array") < 0)
                        return NULL;
                }
                if (get_long(*counts, minimal, &count) < 0)
                    return NULL;
                closed = (double)count <= c->threshold;
            }
        }
        else if (c->mech == MECH_OLM) {
            long committed, occupancy;
            if (get_long(L(c, out_committed), base_g + minimal, &committed) < 0
                || get_long(L(c, credit_occ), base_g + minimal, &occupancy) < 0)
                return NULL;
            closed = (double)(committed + occupancy) < c->threshold;
        }
        if (closed && PyTuple_GET_ITEM(row, 1) != Py_None)
            return Py_NewRef(PyTuple_GET_ITEM(row, 1));
    }
    {
        PyObject *args[4] = {engine, rid_o, base_o, row}, *req;
        Py_INCREF(row);
        req = call_method(s__open_request, args, 4);
        Py_DECREF(row);
        return req;
    }
}

static int
allocate(Core *c, PyObject *engine, long rid, PyObject *rid_o, PyObject *cycle_o, long cycle)
{
    long base_g = rid * c->P;
    /* Per occupied head: its key; per gathered request: input port, VC,
     * output port, the request, the position of its key, its grant slot. */
    long stack_longs[4 * STACK_ITEMS], *keys = stack_longs, *req_in, *req_vc, *req_out;
    PyObject *stack_reqs[STACK_ITEMS], **reqs = stack_reqs;
    Py_ssize_t stack_index[2 * STACK_ITEMS], *req_key = stack_index, *grants;
    char stack_granted[STACK_ITEMS], *granted = stack_granted;
    void *heap = NULL;
    PyObject *heads, *occupied, *draws0 = NULL, *base_o = NULL, *counts = NULL;
    Py_ssize_t n, i, num_reqs = 0;
    long round_index;
    int any_granted = 0, failed = -1;

    if ((heads = item(L(c, new_heads), rid)) == NULL
        || expect_list(heads, "st.new_heads[rid]") < 0)
        return -1;
    if (PyList_GET_SIZE(heads) > 0
        && report_new_heads(c, engine, rid, rid_o, heads, cycle_o) < 0)
        return -1;

    /* Grants remove keys from the live list: iterate a copy. */
    if ((occupied = item(L(c, occ), rid)) == NULL || expect_list(occupied, "st.occ[rid]") < 0)
        return -1;
    n = PyList_GET_SIZE(occupied);
    if (n > STACK_ITEMS) {
        size_t per_head = 4 * sizeof(long) + sizeof(PyObject *) + 2 * sizeof(Py_ssize_t) + 1;
        if ((heap = PyMem_Malloc((size_t)n * per_head)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        keys = heap;
        reqs = (PyObject **)(keys + 4 * n);
        req_key = (Py_ssize_t *)(reqs + n);
        granted = (char *)(req_key + 2 * n);
    }
    req_in = keys + n;
    req_vc = req_in + n;
    req_out = req_vc + n;
    grants = req_key + n;
    for (i = 0; i < n; i++) {
        if (as_long(PyList_GET_ITEM(occupied, i), &keys[i]) < 0)
            goto done;
        granted[i] = 0;
    }
    if ((draws0 = PyObject_GetAttr(engine, s__draws)) == NULL
        || (base_o = PyLong_FromLong(base_g)) == NULL)
        goto done;

    for (round_index = 0; round_index < c->speedup; round_index++) {
        Py_ssize_t num_grants;
        /* Occupied-key order, every round: an open gate runs its trigger
         * exactly as many times, in exactly the order, that `object` calls
         * `select_output` -- the draw count is the RNG contract. */
        for (i = 0; i < n; i++) {
            PyObject *req;
            long size, og, cq, have;
            if (granted[i])
                continue;
            req = head_request(c, engine, rid, rid_o, base_o, keys[i], cycle_o, round_index,
                               &counts);
            if (req == NULL)
                goto done;
            if (req == Py_None) {
                Py_DECREF(req);
                continue;
            }
            reqs[num_reqs++] = req; /* released at `done` or after the round */
            if (expect_tuple(req, 7, "a request") < 0
                || field_long(req, 0, &req_in[num_reqs - 1]) < 0
                || field_long(req, 1, &req_vc[num_reqs - 1]) < 0
                || field_long(req, 2, &req_out[num_reqs - 1]) < 0
                || field_long(req, 3, &size) < 0 || field_long(req, 5, &og) < 0
                || field_long(req, 6, &cq) < 0 || get_long(L(c, out_free), og, &have) < 0
                || (have >= size && get_long(L(c, credits), cq, &have) < 0))
                goto done;
            if (have < size) {
                Py_DECREF(reqs[--num_reqs]);
                continue;
            }
            if (n == 1) {
                /* With one occupied VC a one-request allocation always
                 * succeeds (only the arbiter pointers rotate) and every
                 * later round is a no-op. */
                long nvc;
                if (get_long(L(c, alloc_nvc), rid, &nvc) < 0)
                    goto done;
                if (nvc <= 0) {
                    PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
                    goto done;
                }
                if (set_long(L(c, in_ptr), base_g + req_in[0], pymod(req_vc[0] + 1, nvc)) < 0
                    || set_long(L(c, out_ptr), og, pymod(req_in[0] + 1, c->P)) < 0
                    || commit(c, rid, req, cycle_o, cycle) < 0)
                    goto done;
                failed = 0;
                goto done;
            }
            req_key[num_reqs - 1] = i;
        }
        if (num_reqs == 0)
            break;
        num_grants = alloc_round(c, rid, base_g, num_reqs, req_in, req_vc, req_out, grants);
        if (num_grants < 0)
            goto done;
        for (i = 0; i < num_grants; i++) {
            if (commit(c, rid, reqs[grants[i]], cycle_o, cycle) < 0)
                goto done;
            granted[req_key[grants[i]]] = 1;
            any_granted = 1;
        }
        while (num_reqs > 0)
            Py_DECREF(reqs[--num_reqs]);
    }
    if (!any_granted) {
        /* Grant-free and draw-free: every input of this evaluation is
         * router-local and invalidation-tracked, so skip until poked.  A
         * `FIXED` or closed-gate row must therefore never draw, and a `LIVE`
         * evaluation always counts as a draw. */
        int same = draws_unchanged(engine, draws0);
        if (same < 0 || (same && set_bool(L(c, alloc_clean), rid, 1) < 0))
            goto done;
    }
    failed = 0;
done:
    while (num_reqs > 0)
        Py_DECREF(reqs[--num_reqs]);
    Py_XDECREF(counts);
    Py_XDECREF(base_o);
    Py_XDECREF(draws0);
    PyMem_Free(heap);
    return failed;
}

/* ----------------------------------------------------------- router phase */
/* `for packet in packets: sink.<name>(packet, cycle)`. */
static int
report_packets(PyObject *sink, PyObject *name, PyObject *packets, PyObject *cycle_o)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(packets); i++) {
        PyObject *packet = Py_NewRef(PyList_GET_ITEM(packets, i));
        PyObject *args[3] = {sink, packet, cycle_o};
        int failed = call_void(name, args, 3);
        Py_DECREF(packet);
        if (failed)
            return -1;
    }
    return 0;
}

/* Report and empty the delivered (or dropped) list; returns how many packets
 * it held, -1 on error. */
static Py_ssize_t
drain(PyObject *packets, PyObject *name, PyObject *metrics, PyObject *obs, PyObject *cycle_o)
{
    Py_ssize_t n = PyList_GET_SIZE(packets);
    if (n == 0)
        return 0;
    if ((metrics != Py_None && report_packets(metrics, name, packets, cycle_o) < 0)
        || (obs != Py_None && report_packets(obs, name, packets, cycle_o) < 0)
        || PyList_SetSlice(packets, 0, PyList_GET_SIZE(packets), NULL) < 0)
        return -1;
    return n;
}

/* The events due this cycle, then allocation and output service router by
 * router, then retirement (`Engine._router_phase`, minus the warp hint). */
static int
router_phase(Core *c, PyObject *engine, PyObject *cycle_o, long cycle, PyObject *metrics,
             PyObject *obs, PyObject *faults, PyObject *active, Py_ssize_t *counts)
{
    PyObject *due, *svc = NULL;
    Py_ssize_t num_active, num_due = 0, ai = 0, si = 0, n, kept;
    long P = c->P;
    int failed = -1, on;
    /* The calendars are popped only now, after the driver's injection pass:
     * UGAL/PB `on_inject` reads `credit_occ`, and the object engine runs
     * `begin_cycle` after injection too. */
    if ((due = pop_bucket(L(c, cred_cal), cycle_o)) != NULL) {
        on = apply_credits(c, due);
        Py_DECREF(due);
        if (on < 0)
            return -1;
    }
    else if (PyErr_Occurred())
        return -1;
    if ((due = pop_bucket(L(c, arr_cal), cycle_o)) != NULL) {
        on = apply_arrivals(c, due, cycle_o, active);
        Py_DECREF(due);
        if (on < 0)
            return -1;
    }
    else if (PyErr_Occurred())
        return -1;
    if ((svc = pop_bucket(L(c, svc_cal), cycle_o)) != NULL)
        num_due = PyList_GET_SIZE(svc);
    else if (PyErr_Occurred())
        return -1;
    counts[2] = num_active = PyList_GET_SIZE(active);
    if (num_active > 0 || num_due > 0) {
        PyObject *unsorted = PyObject_GetAttr(c->o[S_st], s_unsorted);
        if (unsorted == NULL)
            goto done;
        on = truth(unsorted);
        Py_DECREF(unsorted);
        if (on < 0
            || (on && (PyList_Sort(active) < 0
                       || PyObject_SetAttr(c->o[S_st], s_unsorted, Py_False) < 0)))
            goto done;
        /* A release carries a `Packet`, which does not order: sort by the
         * port alone (a port has at most one release a cycle). */
        if (svc != NULL && sort_by_port(svc) < 0)
            goto done;
    }
    /* Merge-walk the sorted routers-with-a-head list and the sorted due-port
     * list, so deliveries, metrics and `repro.obs` flight events keep the
     * object engine's router-major order. */
    while ((ai < num_active && ai < PyList_GET_SIZE(active)) || si < num_due) {
        long rid, port = 0, first;
        Py_ssize_t moved;
        int have_active = ai < num_active && ai < PyList_GET_SIZE(active);
        if (si < num_due && field_long(PyList_GET_ITEM(svc, si), 0, &port) < 0)
            goto done;
        if (have_active && as_long(PyList_GET_ITEM(active, ai), &first) < 0)
            goto done;
        if (have_active && (si == num_due || first * P <= port)) {
            PyObject *rid_o = Py_NewRef(PyList_GET_ITEM(active, ai)), *clean;
            rid = first;
            ai++;
            if ((clean = item(L(c, alloc_clean), rid)) == NULL || (on = truth(clean)) < 0
                || (!on && allocate(c, engine, rid, rid_o, cycle_o, cycle) < 0)) {
                Py_DECREF(rid_o);
                goto done;
            }
            Py_DECREF(rid_o);
            /* With `router_latency = 0` a grant's release (or its marker) is
             * due in this very cycle, *after* the bucket above was popped:
             * the router's same-cycle events are merged into its release
             * step below (popping the bucket before the allocation loop
             * alone diverges from `object`, which transmits right after
             * allocate). */
            if (c->router_latency == 0) {
                PyObject *merged = pop_bucket(L(c, svc_cal), cycle_o);
                if (merged == NULL && PyErr_Occurred())
                    goto done;
                if (merged != NULL) {
                    if (svc != NULL) {
                        PyObject *rest = PyList_GetSlice(svc, si, num_due);
                        int joined = rest == NULL ? -1
                                     : PyList_SetSlice(merged, PyList_GET_SIZE(merged),
                                                       PyList_GET_SIZE(merged), rest);
                        Py_XDECREF(rest);
                        if (joined < 0) {
                            Py_DECREF(merged);
                            goto done;
                        }
                    }
                    Py_XSETREF(svc, merged);
                    if (sort_by_port(svc) < 0)
                        goto done;
                    si = 0;
                    num_due = PyList_GET_SIZE(svc);
                }
            }
        }
        else
            /* Due releases on a router without an occupied head. */
            rid = port / P;
        if (si < num_due) {
            if (field_long(PyList_GET_ITEM(svc, si), 0, &port) < 0)
                goto done;
            if (port < rid * P + P && (si = release(c, svc, si, rid)) < 0)
                goto done;
        }
        if ((moved = drain(c->o[S_dlv], s_record_delivery, metrics, obs, cycle_o)) < 0)
            goto done;
        counts[0] += moved;
        if (faults != Py_None) {
            if ((moved = drain(c->o[S_drp], s_record_dropped, metrics, obs, cycle_o)) < 0)
                goto done;
            counts[1] += moved;
        }
    }
    /* Retire routers whose heads all left. */
    n = PyList_GET_SIZE(active);
    for (ai = 0, kept = 0; ai < n; ai++) {
        PyObject *rid_o = PyList_GET_ITEM(active, ai), *keys;
        long rid;
        if (as_long(rid_o, &rid) < 0 || (keys = item(L(c, occ), rid)) == NULL
            || expect_list(keys, "st.occ[rid]") < 0)
            goto done;
        if (PyList_GET_SIZE(keys) > 0) {
            PyList_SET_ITEM(active, ai, PyList_GET_ITEM(active, kept));
            PyList_SET_ITEM(active, kept, rid_o);
            kept++;
        }
        else if (set_bool(L(c, active_flag), rid, 0) < 0)
            goto done;
    }
    if (kept < n && PyList_SetSlice(active, kept, n, NULL) < 0)
        goto done;
    failed = 0;
done:
    Py_XDECREF(svc);
    return failed;
}

/* ------------------------------------------------------------ the type */
static int
Core_traverse(Core *c, visitproc visit, void *arg)
{
    int i;
    for (i = 0; i < N_SLOTS; i++)
        Py_VISIT(c->o[i]);
    return 0;
}

static int
Core_clear(Core *c)
{
    int i;
    for (i = 0; i < N_SLOTS; i++)
        Py_CLEAR(c->o[i]);
    return 0;
}

static void
Core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    Core_clear(c);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static int
bind(Core *c, PyObject *args, PyObject *kwargs)
{
    PyObject *st, *routing, *rows, *drp, *counters, *threshold, *size;
    int i, arrival, head, leave, mech;
    long speedup, latency;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError, "Core() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "OOO!O!(ppp)lliOO:Core", &st, &routing, &PyList_Type, &rows,
                          &PyList_Type, &drp, &arrival, &head, &leave, &speedup, &latency,
                          &mech, &counters, &threshold))
        return -1;
    Core_clear(c);
    for (i = 0; i < N_STATE; i++) {
        PyObject *member = PyObject_GetAttrString(st, state_members[i].name);
        int right;
        if (member == NULL)
            return -1;
        c->o[i] = member;
        right = state_members[i].kind == LIST   ? PyList_Check(member)
                : state_members[i].kind == DICT ? PyDict_Check(member)
                                                : PyTuple_Check(member);
        if (!right) {
            PyErr_Format(PyExc_TypeError, "st.%s has the wrong type: %R",
                         state_members[i].name, member);
            return -1;
        }
    }
    c->o[S_st] = Py_NewRef(st);
    c->o[S_routing] = Py_NewRef(routing);
    c->o[S_rows] = Py_NewRef(rows);
    /* Packets a release delivered, until the walk has reported them. */
    if ((c->o[S_dlv] = PyList_New(0)) == NULL)
        return -1;
    c->o[S_drp] = Py_NewRef(drp);
    c->o[S_counters] = Py_NewRef(counters);
    for (i = 0; i < 2; i++) {
        if ((size = PyObject_GetAttrString(st, i ? "V" : "P")) == NULL)
            return -1;
        if (as_long(size, i ? &c->V : &c->P) < 0) {
            Py_DECREF(size);
            return -1;
        }
        Py_DECREF(size);
    }
    if (c->P <= 0 || c->V <= 0) {
        PyErr_SetString(PyExc_ValueError, "st.P and st.V must be positive");
        return -1;
    }
    c->threshold = 0.0;
    c->mech = mech;
    if (mech == MECH_OLM || mech == MECH_BASE || mech == MECH_ECTN) {
        c->threshold = PyFloat_AsDouble(threshold);
        if (c->threshold == -1.0 && PyErr_Occurred())
            return -1;
        if (mech != MECH_OLM && expect_list(counters, "the counter arrays") < 0)
            return -1;
    }
    c->speedup = speedup;
    c->router_latency = latency;
    c->notify_arrival = arrival;
    c->notify_head = head;
    c->notify_leave = leave;
    return 0;
}

static int
Core_init(Core *c, PyObject *args, PyObject *kwargs)
{
    if (bind(c, args, kwargs) < 0) {
        Core_clear(c); /* half bound is unbound: see `usable` */
        return -1;
    }
    return 0;
}

/* Whether the core is bound: not when `__init__` failed, nor once the
 * collector cleared it. */
static int
usable(Core *c)
{
    if (c->o[S_st] == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "this Core is not bound to a state");
        return 0;
    }
    return 1;
}

static PyObject *
Core_activate(Core *c, PyObject *rid_o)
{
    long rid;
    if (!usable(c) || as_long(rid_o, &rid) < 0 || activate(c, rid, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_apply_credits(Core *c, PyObject *due)
{
    if (!usable(c) || expect_list(due, "due") < 0 || apply_credits(c, due) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_apply_arrivals(Core *c, PyObject *args)
{
    PyObject *due, *cycle_o;
    if (!usable(c) || !PyArg_ParseTuple(args, "O!O!:apply_arrivals", &PyList_Type, &due,
                                        &PyLong_Type, &cycle_o)
        || apply_arrivals(c, due, cycle_o, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_pop_head(Core *c, PyObject *args)
{
    PyObject *port_o, *vc_o, *cycle_o;
    long rid, port, vc, cycle;
    if (!usable(c) || !PyArg_ParseTuple(args, "lO!O!O!:pop_head", &rid, &PyLong_Type, &port_o,
                                        &PyLong_Type, &vc_o, &PyLong_Type, &cycle_o)
        || as_long(port_o, &port) < 0 || as_long(vc_o, &vc) < 0 || as_long(cycle_o, &cycle) < 0)
        return NULL;
    return pop_head(c, rid, port, vc, port_o, vc_o, cycle_o, cycle);
}

static PyObject *
Core_commit(Core *c, PyObject *args)
{
    PyObject *req, *cycle_o;
    long rid, cycle;
    if (!usable(c) || !PyArg_ParseTuple(args, "lOO!:commit", &rid, &req, &PyLong_Type, &cycle_o)
        || as_long(cycle_o, &cycle) < 0 || commit(c, rid, req, cycle_o, cycle) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_release(Core *c, PyObject *args)
{
    PyObject *due;
    Py_ssize_t i;
    long rid;
    if (!usable(c) || !PyArg_ParseTuple(args, "O!nl:release", &PyList_Type, &due, &i, &rid))
        return NULL;
    if (i < 0) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    if ((i = release(c, due, i, rid)) < 0)
        return NULL;
    return PyLong_FromSsize_t(i);
}

static PyObject *
Core_alloc_round(Core *c, PyObject *args)
{
    PyObject *requests, *granted = NULL;
    long rid, base, *fields;
    Py_ssize_t n, i, num_grants, *grants;
    if (!usable(c) || !PyArg_ParseTuple(args, "llO!:alloc_round", &rid, &base, &PyList_Type,
                                        &requests))
        return NULL;
    n = PyList_GET_SIZE(requests);
    /* Requests are read positionally -- slots 0/1/2 are input port, input
     * VC and output port in both the captured-tuple shape and
     * `AllocationRequest` (a NamedTuple with the same field order). */
    fields = PyMem_Malloc((size_t)(n ? n : 1) * (3 * sizeof(long) + sizeof(Py_ssize_t)));
    if (fields == NULL)
        return PyErr_NoMemory();
    grants = (Py_ssize_t *)(fields + 3 * n);
    for (i = 0; i < n; i++) {
        PyObject *req = PyList_GET_ITEM(requests, i);
        if (field_long(req, 0, &fields[i]) < 0 || field_long(req, 1, &fields[n + i]) < 0
            || field_long(req, 2, &fields[2 * n + i]) < 0)
            goto done;
    }
    num_grants = alloc_round(c, rid, base, n, fields, fields + n, fields + 2 * n, grants);
    if (num_grants < 0 || (granted = PyList_New(num_grants)) == NULL)
        goto done;
    for (i = 0; i < num_grants; i++)
        PyList_SET_ITEM(granted, i, Py_NewRef(PyList_GET_ITEM(requests, grants[i])));
done:
    PyMem_Free(fields);
    return granted;
}

static PyObject *
Core_router_phase(Core *c, PyObject *args)
{
    PyObject *engine, *cycle_o, *metrics = NULL, *obs = NULL, *faults = NULL, *active = NULL;
    PyObject *result = NULL;
    Py_ssize_t counts[3] = {0, 0, 0};
    long cycle;
    if (!usable(c) || !PyArg_ParseTuple(args, "OO!:router_phase", &engine, &PyLong_Type,
                                        &cycle_o)
        || as_long(cycle_o, &cycle) < 0)
        return NULL;
    if ((metrics = PyObject_GetAttr(engine, s_metrics)) != NULL
        && (obs = PyObject_GetAttr(engine, s_obs)) != NULL
        && (faults = PyObject_GetAttr(engine, s_faults)) != NULL
        && (active = PyObject_GetAttr(c->o[S_st], s_active)) != NULL
        && expect_list(active, "st.active") == 0
        && router_phase(c, engine, cycle_o, cycle, metrics, obs, faults, active, counts) == 0)
        result = Py_BuildValue("(nnn)", counts[0], counts[1], counts[2]);
    Py_XDECREF(active);
    Py_XDECREF(faults);
    Py_XDECREF(obs);
    Py_XDECREF(metrics);
    return result;
}

static PyMethodDef Core_methods[] = {
    {"activate", (PyCFunction)Core_activate, METH_O,
     "activate(rid): put router `rid` on the active list (`SoAEngine._activate`)."},
    {"apply_credits", (PyCFunction)Core_apply_credits, METH_O,
     "apply_credits(due): the credit returns `(rid, g, q, phits)` of one bucket."},
    {"apply_arrivals", (PyCFunction)Core_apply_arrivals, METH_VARARGS,
     "apply_arrivals(due, cycle): the link arrivals `(g, vc, packet)` of one bucket."},
    {"pop_head", (PyCFunction)Core_pop_head, METH_VARARGS,
     "pop_head(rid, port, vc, cycle) -> packet: the input side of a hop."},
    {"commit", (PyCFunction)Core_commit, METH_VARARGS,
     "commit(rid, request, cycle): commit a grant and book its release and arrival."},
    {"release", (PyCFunction)Core_release, METH_VARARGS,
     "release(due, i, rid) -> int: the releases of router `rid` starting at `due[i]`."},
    {"alloc_round", (PyCFunction)Core_alloc_round, METH_VARARGS,
     "alloc_round(rid, base, requests) -> grants: one separable allocation."},
    {"router_phase", (PyCFunction)Core_router_phase, METH_VARARGS,
     "router_phase(engine, cycle) -> (delivered, dropped, visited routers)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simulation.soa._core.Core",
    .tp_doc = "Core(st, routing, rows, dropped, (arrival, head, leave hooks), speedup, "
              "router_latency, mech, counters, threshold)\n\n"
              "The compiled hop chain over one SoAState (see soa/engine.py).",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Core_init,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear,
    .tp_methods = Core_methods,
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.simulation.soa._core",
    .m_doc = "The compiled hop chain of the SoA engine (built from _core.c on first use).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *module;
#define INTERN_NAME(n) \
    if ((s_##n = PyUnicode_InternFromString(#n)) == NULL) \
        return NULL;
    NAMES(INTERN_NAME)
    if ((kw_is_global = PyTuple_Pack(1, s_is_global)) == NULL || PyType_Ready(&CoreType) < 0
        || (module = PyModule_Create(&core_module)) == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
