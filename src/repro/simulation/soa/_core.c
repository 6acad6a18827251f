/* The hop chain of the SoA engine, compiled.
 *
 * One `Core` is bound to one `SoAState`: it holds the state's own lists,
 * tuples and calendar dicts (never copies, never the engine) and runs over
 * them the statements `SoAEngine` used to run in Python -- credit returns,
 * link arrivals, the pop / commit / release chain of a hop, the separable
 * allocator, the allocation rounds and the router-major merge walk of a
 * cycle -- and the routing work of a buffer head when the mechanism is a
 * stock one: the routing hooks, `Packet.record_hop`, the head captures (the
 * pure mechanisms' `select_output`, the adaptive path policies) and the
 * triggers of their open gates -- and an injection with its stock
 * `on_inject`, the topology queries of a Dragonfly from its route and
 * link-offset tables, the source phase of a cycle (the stock Bernoulli
 * generator, its destinations, `Packet(...)`, `ComputeNode.enqueue`), the
 * stock delivery accounting of `MetricsCollector` and PB's saturation
 * broadcast.  Everything a test or a probe reads through `st.*` therefore
 * stays live state: the integer columns are `array('q')`s this core holds a
 * buffer on, `Packet`s sit in VC lists, event tuples in `cycle -> [events]`
 * dicts, row tuples in `engine._rows`, and the collector's counters, samples
 * and time-series bins are its own attributes.
 *
 * A hook is answered here only while the function the instance resolves for
 * its name -- resolved the way a method call resolves it, the type's part
 * through the name cache, valid per type version -- is the stock function
 * `SoAEngine` handed over; a subclass override or a wrapper on the class or
 * the instance, installed at any time, is called by name instead, with the
 * arguments and in the order the object engine uses; a Dragonfly's topology
 * queries follow the same rule.  What a stock body calls that is not
 * transcribed -- another topology's queries, misses of the routing's memos,
 * the obs / dateline / fault sub-calls -- is a Python call made from here, by
 * name and in the body's order.  A trigger's draw is answered here too, by
 * the one bounded draw of a run (the module function `integers`, which
 * `repro.draws.integers` binds to): numpy's own Lemire step over the bit
 * generator, and `rng.integers` by name only where that does not apply.
 * `_live_request` (`LIVE` rows: fault runs, routing subclasses),
 * `metrics.record_dropped`, `obs.record_*` and ECtN's broadcast stay Python.
 * The engine is an argument of the entry points that need it, not a member:
 * engine -> core is the only edge between the two.
 *
 * Memory safety does not rest on the state being well formed: every list
 * index is bounds-checked, every conversion is checked, and whatever is held
 * across a call into Python is held by a strong reference.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
#define ROW_GLOBAL 2
#define ROW_LOCAL 3

/* The signals an adaptive trigger reads (bit i: `bind_trigger`'s i-th name). */
#define READS_COUNTERS 1
#define READS_OCCUPANCY 2
#define READS_COMBINED 4

/* Who writes the rows (`SoAEngine._capture`; -1: nobody, every row `LIVE`):
 * the pure capture or one of the adaptive path policies here. */
#define CAPTURE_PURE 0
#define CAPTURE_GROUP 1
#define CAPTURE_PORT_TABLE 2

/* Requests per round / occupied heads per router held on the C stack. */
#define STACK_ITEMS 64

/* Defaulted `Packet` fields a packet built here can have. */
#define MAX_DEFAULTS 64

/* ------------------------------------------------------------------ names */
#define NAMES(X) \
    X(on_grant) X(on_packet_head) X(on_packet_arrival) X(on_packet_leave_input) \
    X(record_hop) X(is_global) X(vc) X(record_delivery) X(record_dropped) X(metrics) \
    X(obs) X(faults) X(active) X(unsorted) X(counts) X(_draws) \
    X(_live_request) X(on_head) X(on_leave) X(decrement) X(plain_decision) \
    X(global_candidates) X(local_candidates) X(router_candidates) X(_towards_group) X(ring_vc) \
    X(output_port) \
    X(_maybe_count_partial) X(_obs) X(_dateline) X(_commit_fault_hop) X(commit_ring_hop) \
    X(record_grant) X(minimal_output_port) X(minimal_route_to_router) X(router_hops) X(_route_port) \
    X(router_region) X(node_region) X(node_router) \
    X(link_offset_for_destination) X(rng) X(integers) X(bit_generator) X(capsule) X(lock) \
    X(acquire) X(release) \
    X(on_inject) X(prefers_valiant) X(_ugal_prefers_valiant) X(random_intermediate_router) \
    X(source_queue) X(popleft) X(node_id) X(port) X(_vc_pointer) X(next_injection_cycle) \
    X(injected_packets) X(select_output) X(port_target_region) \
    X(record_generated) X(in_window) X(measure_start) X(measure_end) X(latency) \
    X(timeseries) X(delivered_packets) X(delivered_phits) \
    X(fault_rerouted_delivered) X(generated_in_window) X(_samples) X(record) \
    X(hops_sum) X(start_cycle) X(end_cycle) X(bin_size) X(_bins) X(count) \
    X(latency_sum) X(misrouted) X(append) \
    X(traffic) X(network) X(nodes) X(_active_nodes) X(_nodes_unsorted) X(_inject) X(generate) \
    X(_packet_probability) X(_ensure_block) X(block_cycles) X(_block_index) X(_event_cycles) \
    X(_event_nodes) X(_ptr) X(_consumed_cycle) X(pattern) X(destination) X(packet_size_phits) \
    X(_next_pid) X(generated_packets) X(before) X(after) X(switch_cycle) X(offset) X(topology) \
    X(num_nodes) X(num_routers) X(num_regions) X(routers_per_region) X(nodes_per_router) \
    X(region_node_range) X(_random_node_excluding) X(enqueue) X(generated_phits) X(_network) \
    X(activate_node) X(__init__) X(Packet) X(TimeSeriesPoint) X(deque) X(_p) X(_a) \
    X(_num_groups) X(_num_routers) \
    X(valiant_intermediate_router) X(publish_flags) X(_pending) \
    X(notification_delay) X(_flags) X(_saturated_groups) X(add) X(discard) X(__version_probe__)

#define DECLARE_NAME(n) static PyObject *s_##n;
NAMES(DECLARE_NAME)
static PyObject *kw_is_global; /* ("is_global",) */
/* The keywords of `Packet(...)` in `generate` and of
 * `TimeSeriesRecorder.record`. */
static PyObject *kw_packet, *kw_bin;
static PyObject *zero, *one;   /* the ints 0 and 1 */

/* The `Packet` fields the chain reads and writes. */
#define PACKET_FIELDS(X) \
    X(pid) X(src) X(creation_cycle) X(fault_mode) X(dst) X(size_phits) X(phase) \
    X(intermediate_group) X(valiant_router) X(hops) \
    X(local_hops) X(global_hops) X(local_hops_in_group) X(vc_leg) X(ring_dim) \
    X(ring_crossed) X(ring_dir) X(globally_misrouted) X(locally_misrouted) \
    X(misroute_recorded_cycle) X(current_vc) X(delivered_cycle) X(contention_port) \
    X(ectn_offset) X(must_misroute_global) X(injection_cycle) X(source_group)

#define FIELD_ENUM(n) F_##n,
enum { PACKET_FIELDS(FIELD_ENUM) N_FIELDS };
static PyObject *field_names[N_FIELDS];

/* `RoutingDecision`'s fields, in order. */
#define DECISION_FIELDS(X) \
    X(output_port) X(vc) X(nonminimal_global) X(nonminimal_local) \
    X(set_intermediate_group) X(set_must_misroute_global) X(set_fault_mode)
#define DECISION_ENUM(n) D_##n,
#define DECISION_NAME(n) #n,
enum { DECISION_FIELDS(DECISION_ENUM) N_DECISION };

/* ------------------------------------------------------------------ stock */
/* The functions a hook is answered in C for, as `SoAEngine` hands them over
 * (`stock["Class.name"]`), and the types and constants those answers build
 * and compare (`stock["name"]`). */
#define STOCK_FUNCTIONS(X) \
    X(RoutingAlgorithm, on_grant) X(RoutingAlgorithm, on_inject) X(Packet, record_hop) \
    X(ValiantRouting, on_inject) X(UGALRouting, on_inject) X(UGALRouting, prefers_valiant) \
    X(UGALRouting, _ugal_prefers_valiant) X(PiggybackRouting, prefers_valiant) \
    X(AdaptiveInTransitRouting, on_packet_arrival) X(ValiantRouting, on_packet_arrival) \
    X(AdaptiveInTransitRouting, global_candidates) \
    X(AdaptiveInTransitRouting, local_candidates) \
    X(BaseContentionRouting, on_packet_head) X(BaseContentionRouting, on_packet_leave_input) \
    X(ECtNRouting, on_packet_head) X(ECtNRouting, on_packet_arrival) \
    X(ECtNRouting, on_packet_leave_input) X(ECtNRouting, _maybe_count_partial) \
    X(ECtNRouting, link_offset_for_destination) \
    X(ContentionTracker, on_head) X(ContentionTracker, on_leave) \
    X(ContentionCounters, decrement) \
    X(DragonflyTopology, router_region) X(DragonflyTopology, node_region) \
    X(DragonflyTopology, node_router) X(DragonflyTopology, minimal_output_port) \
    X(DragonflyTopology, minimal_route_to_router) X(DragonflyTopology, router_hops) \
    X(DragonflyTopology, _route_port) \
    X(MinimalRouting, select_output) X(ValiantRouting, select_output) \
    X(MetricsCollector, record_delivery) X(MetricsCollector, record_generated) \
    X(MetricsCollector, in_window) X(TimeSeriesRecorder, record) \
    X(BernoulliTrafficGenerator, generate) X(UniformTraffic, destination) \
    X(AdversarialTraffic, destination) X(TransientTraffic, destination) \
    X(TrafficPattern, _random_node_excluding) X(Topology, region_node_range) \
    X(ComputeNode, enqueue) X(Network, activate_node) \
    X(ValiantRouting, random_intermediate_router) X(Topology, valiant_intermediate_router) \
    X(DragonflyTopology, port_target_region) X(PiggybackRouting, publish_flags)
/* What a stock body reads or builds with that its class's source does not
 * define as a function: properties (compared with what the type's MRO holds,
 * never called) and the dataclass-made `Packet.__init__`. */
#define STOCK_ATTRIBUTES(X) \
    X(DragonflyTopology, num_nodes) X(DragonflyTopology, num_routers) \
    X(DragonflyTopology, num_regions) X(DragonflyTopology, routers_per_region) \
    X(DragonflyTopology, nodes_per_router) X(Packet, __init__)
#define STOCK_OBJECTS(X) \
    X(Packet) X(RoutingDecision) X(RoutingAlgorithm) X(ValiantRouting) X(ECtNRouting) \
    X(DragonflyTopology) X(TO_INTERMEDIATE) X(MINIMAL) X(GLOBAL) X(draws) X(packet_defaults) \
    X(NO_EVENT)

/* What the stock hook bodies, the triggers and the captures read off the
 * routing, bound once: the topology, and where the mechanism has them, the
 * contention tracker, its counter arrays, ECtN's partial and combined arrays,
 * PB's flags, the routers' shared candidate tuples (`None` otherwise), the
 * node -> router table, and the tables and memos of the path policy; and
 * off a Dragonfly its route and link-offset tables. */
#define ROUTING_MEMBERS(X) \
    X(topology) X(tracker) X(counters) X(partial) X(combined) X(flags) X(shared) X(plain) \
    X(towards_cache) X(ring_dims) X(port_candidates) X(node_rid) X(updown_vcs) \
    X(route_table) X(link_offsets) X(offset_to_group)

/* ------------------------------------------------------------------ slots */
/* The state members the core holds.  `active` and `unsorted` are not among
 * them: the state rebinds those, so they are read through `st` when needed.
 * The integer columns the core stores into event tuples as objects (`up_g`,
 * `up_rid`, `down_g`) are lists; the flags are lists of bools. */
enum member_kind { LIST, DICT, TUPLE };
#define STATE_MEMBERS(X) \
    X(in_q, LIST) X(head_seen, LIST) X(up_g, LIST) X(up_rid, LIST) X(down_g, LIST) \
    X(occ, LIST) X(new_heads, LIST) X(alloc_clean, LIST) X(active_flag, LIST) X(views, LIST) \
    X(cred_cal, DICT) X(arr_cal, DICT) X(svc_cal, DICT) \
    X(kind_is_injection, TUPLE) X(kind_is_global, TUPLE)

/* The integer columns the core reads and writes as numbers: `array('q')`s,
 * each held through a buffer from `__init__` to `Core_clear` (which keeps
 * the array from resizing under it). */
#define STATE_COLUMNS(X) \
    X(in_free) X(credits) X(max_credits) X(up_lat) X(out_committed) X(out_free) X(link_busy) \
    X(link_booked) X(link_lat) X(ser_fac) X(credit_occ) X(in_ptr) X(out_ptr) X(in_nvcs) \
    X(alloc_nvc)
#define COLUMN_ENUM(name) C_##name,
#define COLUMN_NAME(name) #name,
enum { STATE_COLUMNS(COLUMN_ENUM) N_COLUMNS };
static const char *const column_names[N_COLUMNS] = {STATE_COLUMNS(COLUMN_NAME)};

#define SLOT_ENUM(name, kind) S_##name,
#define STOCK_FUNCTION_ENUM(owner, name) S_##owner##_##name,
#define STOCK_OBJECT_ENUM(name) S_##name,
#define MEMBER_ENUM(name) S_##name,
enum {
    STATE_MEMBERS(SLOT_ENUM)
    N_STATE,
    S_st = N_STATE,
    S_routing,
    S_rows,
    S_dlv,
    S_drp,
    STOCK_FUNCTIONS(STOCK_FUNCTION_ENUM)
    STOCK_ATTRIBUTES(STOCK_FUNCTION_ENUM)
    STOCK_OBJECTS(STOCK_OBJECT_ENUM)
    ROUTING_MEMBERS(MEMBER_ENUM)
    N_SLOTS
};
#define SLOT_ENTRY(name, kind) {#name, kind},
static const struct {
    const char *name;
    enum member_kind kind;
} state_members[N_STATE] = {STATE_MEMBERS(SLOT_ENTRY)};
#define STOCK_FUNCTION_ENTRY(owner, name) {S_##owner##_##name, #owner "." #name},
#define STOCK_OBJECT_ENTRY(name) {S_##name, #name},
static const struct {
    int slot;
    const char *key;
} stock_entries[] = {STOCK_FUNCTIONS(STOCK_FUNCTION_ENTRY) STOCK_ATTRIBUTES(STOCK_FUNCTION_ENTRY)
                     STOCK_OBJECTS(STOCK_OBJECT_ENTRY)};

typedef struct {
    PyObject_HEAD
    PyObject *o[N_SLOTS];
    Py_buffer column[N_COLUMNS];
    long P, V;
    long speedup, router_latency;
    int notify_arrival, notify_head, notify_leave;
    /* The signals the trigger reads (`READS_*`, 0: no trigger) and its
     * constants: the contention threshold, the occupancy ratio and minimum,
     * the combined threshold. */
    int signals;
    double counter_threshold, occupancy_ratio, min_occupancy, combined_threshold;
    long draws; /* trigger draws not yet added to `engine._draws` */
    /* The capture (`CAPTURE_*`, -1: none) and the routing's constants it
     * reads: nodes per router, routers / nodes per group, the global and
     * local VC counts, the global ports of a shared candidate tuple, ECtN's
     * links per router and first global port. */
    int capture;
    long npr, rpg, npg, global_vcs, local_vcs, num_global, h, first_global;
    /* The pure capture's: nodes per region (VAL), whether the topology has
     * global ports, whether it is a dateline topology (`hop_vc` asks the ring
     * state machine: `select_output` is then called by name). */
    long npreg;
    int has_global_ports, dateline;
    /* A `DragonflyTopology`'s nodes per router, routers per group, global
     * ports per router, groups, routers and first global port (`df_a` 0 on
     * any other topology: no topology query is answered in C there). */
    long df_p, df_a, df_h, df_groups, df_routers, df_first_global;
    /* UGAL's `T`, in phits. */
    double valiant_threshold;
    /* `Packet` when its fields are verified `__slots__` (read at `offset`),
     * else NULL: every packet then goes through getattr / setattr. */
    PyTypeObject *packet_type;
    Py_ssize_t offset[N_FIELDS];
    /* A `Packet` built here: the offsets of its defaulted fields, whose
     * defaults `stock["packet_defaults"]` holds in that order (`defaults`
     * -1: the class is called). */
    Py_ssize_t defaults, default_offset[MAX_DEFAULTS];
    long no_event; /* `_NO_EVENT`: no node has a pending injection */
} Core;

#define L(c, name) ((c)->o[S_##name])
#define STOCK(c, owner, name) ((c)->o[S_##owner##_##name])

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

/* `st.<column>[i]` of a typed column (`C_*`). */
static inline int
column_get(Core *c, int column, long i, long *out)
{
    const Py_buffer *view = &c->column[column];
    if ((size_t)i >= (size_t)view->len / sizeof(long long)) {
        PyErr_SetString(PyExc_IndexError, "array index out of range");
        return -1;
    }
    *out = (long)((const long long *)view->buf)[i];
    return 0;
}

/* `st.<column>[i] = v`. */
static inline int
column_set(Core *c, int column, long i, long v)
{
    const Py_buffer *view = &c->column[column];
    if ((size_t)i >= (size_t)view->len / sizeof(long long)) {
        PyErr_SetString(PyExc_IndexError, "array assignment index out of range");
        return -1;
    }
    ((long long *)view->buf)[i] = v;
    return 0;
}

#define get_col(c, name, i, out) column_get((c), C_##name, (i), (out))
#define set_col(c, name, i, v) column_set((c), C_##name, (i), (v))

static inline int
truth(PyObject *o)
{
    if (o == Py_True)
        return 1;
    if (o == Py_False || o == Py_None)
        return 0;
    return PyObject_IsTrue(o);
}

/* `st.kind_is_<kind>[port]` (`slot` is `S_kind_is_global` or
 * `S_kind_is_injection`): 1 / 0, -1 on error. */
static int
port_is(Core *c, int slot, long port)
{
    if ((size_t)port >= (size_t)PyTuple_GET_SIZE(c->o[slot])) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return -1;
    }
    return truth(PyTuple_GET_ITEM(c->o[slot], port));
}

/* Python's `%` and `//` for a positive modulus. */
static inline long
pymod(long a, long m)
{
    long r = a % m;
    return r < 0 ? r + m : r;
}

static inline long
pydiv(long a, long m)
{
    return (a - pymod(a, m)) / m;
}

/* `seq[i]` of a list or tuple (borrowed). */
static PyObject *
at(PyObject *seq, long i)
{
    if (PyList_Check(seq))
        return item(seq, i);
    if (!PyTuple_Check(seq)) {
        PyErr_Format(PyExc_TypeError, "expected a list or tuple, got %R", seq);
        return NULL;
    }
    if ((size_t)i >= (size_t)PyTuple_GET_SIZE(seq)) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return NULL;
    }
    return PyTuple_GET_ITEM(seq, i);
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
    PyObject *item;
} sort_entry;

static int
compare_entries(const void *a, const void *b)
{
    const sort_entry *x = a, *y = b;
    if (x->key != y->key)
        return x->key < y->key ? -1 : 1;
    return x->index < y->index ? -1 : (x->index > y->index);
}

/* `items.sort(key=...)` with an int key: stable. */
static int
sort_by(PyObject *items, int (*key_of)(PyObject *, long *))
{
    Py_ssize_t n = PyList_GET_SIZE(items), i;
    sort_entry *entries;
    long previous = 0, key;
    int sorted = 1;
    if (n < 2)
        return 0;
    for (i = 0; i < n; i++) {
        if (key_of(PyList_GET_ITEM(items, i), &key) < 0)
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
        entries[i].item = PyList_GET_ITEM(items, i);
        entries[i].index = i;
        if (key_of(entries[i].item, &entries[i].key) < 0) {
            PyMem_Free(entries);
            return -1;
        }
    }
    qsort(entries, (size_t)n, sizeof(sort_entry), compare_entries);
    for (i = 0; i < n; i++) /* a permutation: no reference changes hands */
        PyList_SET_ITEM(items, i, entries[i].item);
    PyMem_Free(entries);
    return 0;
}

static int
port_key(PyObject *event, long *key)
{
    return field_long(event, 0, key);
}

/* `events.sort(key=itemgetter(0))`: by the port each event starts with (an
 * event may carry a `Packet`, which does not order). */
static int
sort_by_port(PyObject *events)
{
    return sort_by(events, port_key);
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

/* ------------------------------------------------------------- name cache */
/* What a type's MRO holds for a name, looked up once per type version: one
 * four-way set-associative table keyed by (type, name, where the walk
 * starts), each entry good while the type's version tag is the one it was
 * filled under.
 * The interpreter gives a type a new tag whenever its namespace, a base's or
 * its MRO changes, so a function wrapped on a class -- or a class attribute
 * replaced -- misses here and is looked up again.  Like the interpreter's own
 * method cache the table holds no references: a type is compared, never
 * dereferenced, and what an entry found is trusted only under a matching
 * tag.  A miss walks the MRO with public API.  A type without a valid tag is
 * given one first (3.11 tags a type at its next attribute lookup: one of a
 * name nothing defines); one that still has none is walked each time and not
 * stored.  The keys are this module's interned names, which live as long as
 * the process. */
#define CACHE_SETS 256
#define CACHE_WAYS 4 /* per set, the most recently filled first */

enum entry_kind {
    E_PLAIN,  /* nothing, a plain class attribute or a non-data descriptor */
    E_SLOT,   /* a writable object slot of `__slots__`, at `offset` */
    E_DATA,   /* another data descriptor: a property, a getset, a member */
    E_METHOD, /* a method descriptor (a function): what a method call binds */
};

typedef struct {
    PyTypeObject *type; /* compared, not held */
    PyObject *name, *after;
    unsigned int tag;
    int kind;
    PyObject *found; /* what the walk found (NULL: nothing); not held */
    Py_ssize_t offset;
} cache_entry;

static cache_entry name_cache[CACHE_SETS][CACHE_WAYS];

/* Whether the type's version tag is one the interpreter keeps current. */
static inline int
tag_valid(PyTypeObject *type)
{
#if PY_VERSION_HEX >= 0x030C0000
    return type->tp_version_tag != 0;
#else
    return PyType_HasFeature(type, Py_TPFLAGS_VALID_VERSION_TAG) && type->tp_version_tag != 0;
#endif
}

/* Have the interpreter give `type` a version tag if it can: 1 if it has
 * one, 0 if not, -1 on error. */
static int
assign_tag(PyTypeObject *type)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyUnstable_Type_AssignVersionTag(type) ? 1 : 0;
#else
    /* The generic `type.__getattribute__` looks the name up on the type,
     * which tags it; the name is not defined anywhere, so no descriptor
     * runs. */
    if (Py_TYPE(type)->tp_getattro == PyType_Type.tp_getattro) {
        PyObject *nothing = PyObject_GetAttr((PyObject *)type, s___version_probe__);
        if (nothing != NULL)
            Py_DECREF(nothing);
        else if (PyErr_ExceptionMatches(PyExc_AttributeError))
            PyErr_Clear();
        else
            return -1;
    }
    return tag_valid(type);
#endif
}

/* The first namespace of `type.__mro__` -- after class `after`, when given,
 * as `super(after, obj)` looks -- holding `name`, into `e`.  0, -1 on
 * error. */
static int
walk_mro(PyTypeObject *type, PyObject *name, PyObject *after, cache_entry *e)
{
    PyObject *mro = type->tp_mro, *found = NULL;
    PyTypeObject *kind;
    Py_ssize_t i = 0, n;
    e->found = NULL;
    e->kind = E_PLAIN;
    e->offset = 0;
    if (mro == NULL || !PyTuple_Check(mro))
        return 0;
    n = PyTuple_GET_SIZE(mro);
    if (after != NULL) {
        while (i < n && PyTuple_GET_ITEM(mro, i) != after)
            i++;
        i++;
    }
    for (; i < n && found == NULL; i++) {
#if PY_VERSION_HEX >= 0x030C0000
        PyObject *namespace = PyType_GetDict((PyTypeObject *)PyTuple_GET_ITEM(mro, i));
        found = namespace == NULL ? NULL : PyDict_GetItemWithError(namespace, name);
        Py_XDECREF(namespace); /* the class holds it: `found` stays valid */
#else
        PyObject *namespace = ((PyTypeObject *)PyTuple_GET_ITEM(mro, i))->tp_dict;
        found = namespace == NULL ? NULL : PyDict_GetItemWithError(namespace, name);
#endif
        if (found == NULL && PyErr_Occurred())
            return -1;
    }
    if ((e->found = found) == NULL)
        return 0;
    kind = Py_TYPE(found);
    if (PyType_HasFeature(kind, Py_TPFLAGS_METHOD_DESCRIPTOR))
        e->kind = E_METHOD;
    else if (kind == &PyMemberDescr_Type) {
        PyMemberDef *member = ((PyMemberDescrObject *)found)->d_member;
        e->kind = E_DATA;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY)
            && PyType_IsSubtype(type, PyDescr_TYPE(found))) {
            e->kind = E_SLOT;
            e->offset = member->offset;
        }
    }
    else if (kind->tp_descr_get != NULL && kind->tp_descr_set != NULL)
        e->kind = E_DATA;
    return 0;
}

/* The entry of `name` on `type` (walked from after `after`, or NULL): the
 * table's, or `scratch` filled when the type cannot be cached.  NULL on
 * error. */
static cache_entry *
lookup(PyTypeObject *type, PyObject *name, PyObject *after, cache_entry *scratch)
{
    uint64_t h = ((uint64_t)(uintptr_t)type ^ ((uint64_t)(uintptr_t)name << 1)
                  ^ ((uint64_t)(uintptr_t)after << 2)) * UINT64_C(0x9E3779B97F4A7C15);
    cache_entry *set = name_cache[(h >> 40) % CACHE_SETS];
    unsigned int tag;
    int tagged = tag_valid(type), way;
    if (!tagged && (tagged = assign_tag(type)) < 0)
        return NULL;
    tag = type->tp_version_tag;
    for (way = 0; tagged && way < CACHE_WAYS; way++) {
        cache_entry *e = &set[way];
        if (e->type == type && e->tag == tag && e->name == name && e->after == after)
            return e;
    }
    if (walk_mro(type, name, after, scratch) < 0)
        return NULL;
    if (!tagged || !tag_valid(type) || type->tp_version_tag != tag)
        return scratch;
    scratch->type = type;
    scratch->name = name;
    scratch->after = after;
    scratch->tag = tag;
    memmove(&set[1], &set[0], (CACHE_WAYS - 1) * sizeof(cache_entry));
    set[0] = *scratch;
    return &set[0];
}

/* Whether instances of `type` can have their own `__dict__`. */
static inline int
has_dict(PyTypeObject *type)
{
    return type->tp_dictoffset != 0 || PyType_HasFeature(type, Py_TPFLAGS_MANAGED_DICT);
}

/* `obj.<name>` (a new reference): a slot read at its offset, another data
 * descriptor's `__get__`, else the generic attribute lookup -- each only
 * while the type keeps the generic `__getattribute__`. */
static PyObject *
get_attr(PyObject *obj, PyObject *name)
{
    PyTypeObject *type = Py_TYPE(obj);
    if (type->tp_getattro == PyObject_GenericGetAttr) {
        cache_entry scratch, *e = lookup(type, name, NULL, &scratch);
        if (e == NULL)
            return NULL;
        if (e->kind == E_SLOT) {
            PyObject *value = *(PyObject **)((char *)obj + e->offset);
            if (value != NULL)
                return Py_NewRef(value);
        }
        else if (e->kind == E_DATA) {
            PyObject *descriptor = Py_NewRef(e->found), *value;
            value = Py_TYPE(descriptor)->tp_descr_get(descriptor, obj, (PyObject *)type);
            Py_DECREF(descriptor);
            return value;
        }
    }
    return PyObject_GetAttr(obj, name);
}

/* `obj.<name> = value`: a slot written at its offset while the type keeps
 * the generic `__setattr__`, else the generic assignment. */
static int
set_attr(PyObject *obj, PyObject *name, PyObject *value)
{
    PyTypeObject *type = Py_TYPE(obj);
    if (type->tp_setattro == PyObject_GenericSetAttr) {
        cache_entry scratch, *e = lookup(type, name, NULL, &scratch);
        if (e == NULL)
            return -1;
        if (e->kind == E_SLOT) {
            PyObject **slot = (PyObject **)((char *)obj + e->offset), *old = *slot;
            *slot = Py_NewRef(value);
            Py_XDECREF(old);
            return 0;
        }
    }
    return PyObject_SetAttr(obj, name, value);
}

/* Whether `type.__mro__` (after class `after`, or NULL) resolves `name` to
 * `value` -- compared, never called.  1 / 0, -1 on error. */
static int
mro_resolves(PyTypeObject *type, PyObject *name, PyObject *after, PyObject *value)
{
    cache_entry scratch, *e = lookup(type, name, after, &scratch);
    return e == NULL ? -1 : e->found == value;
}

/* ---------------------------------------------------------------- dispatch */
/* `self.<name>` resolved as a method call resolves it -- the instance's own
 * attribute first, then the type's -- without making a bound method: `fn` is
 * a new reference, `unbound` says it is the type's function (`self` first).
 * Where the instance has a `__dict__`, whether it holds `name` is read only
 * when it matters, by `stock` (`unprobed` until then): reading an instance
 * dict through the API turns the object's attributes into a dict for good,
 * which slows every Python method of the object, so it is done only for an
 * object whose type holds the stock function. */
typedef struct {
    PyObject *fn;
    PyObject *self, *name; /* borrowed: what `fn` was resolved on, and for */
    int unbound, unprobed;
} method;

/* A function the type's MRO holds (found in the name cache) is the answer
 * unless the instance's own dict holds the name; anything else -- a data
 * descriptor, a plain attribute, a type with its own `__getattribute__` --
 * is the generic lookup's bound answer. */
static int
resolve(PyObject *self, PyObject *name, method *m)
{
    PyTypeObject *type = Py_TYPE(self);
    m->self = self;
    m->name = name;
    m->unbound = m->unprobed = 0;
    if (type->tp_getattro == PyObject_GenericGetAttr) {
        cache_entry scratch, *e = lookup(type, name, NULL, &scratch);
        if (e == NULL) {
            m->fn = NULL;
            return -1;
        }
        if (e->kind == E_METHOD) {
            m->fn = Py_NewRef(e->found);
            m->unbound = 1;
            m->unprobed = has_dict(type);
            return 0;
        }
    }
    m->fn = PyObject_GetAttr(self, name);
    return m->fn == NULL ? -1 : 0;
}

/* Whether `m` is the stock function `function`: the type's function, which
 * the instance's own dict does not shadow.  A dict that cannot be read
 * leaves the answer "no" and `m` unprobed: the call goes by name. */
static int
stock(method *m, PyObject *function)
{
    if (!m->unbound || m->fn != function)
        return 0;
    if (m->unprobed) {
        PyObject *dict = PyObject_GenericGetDict(m->self, NULL), *own = NULL;
        if (dict != NULL) {
            own = PyDict_GetItemWithError(dict, m->name);
            Py_XINCREF(own);
            Py_DECREF(dict);
        }
        if (own == NULL && PyErr_Occurred()) {
            PyErr_Clear();
            return 0;
        }
        m->unprobed = 0;
        if (own != NULL) {
            Py_SETREF(m->fn, own);
            m->unbound = 0;
            return 0;
        }
    }
    return 1;
}

/* Call what `resolve` found, `args[0]` being the object it was resolved on
 * (an unprobed instance by name, as `PyObject_VectorcallMethod` resolves
 * it); gives up `m`.  A new reference. */
static PyObject *
call_found(method *m, PyObject **args, size_t nargs, PyObject *kwnames)
{
    PyObject *result = m->unprobed
        ? PyObject_VectorcallMethod(m->name, args, nargs, kwnames)
        : m->unbound
        ? PyObject_Vectorcall(m->fn, args, nargs, kwnames)
        : PyObject_Vectorcall(m->fn, args + 1, (nargs - 1) | PY_VECTORCALL_ARGUMENTS_OFFSET,
                              kwnames);
    Py_CLEAR(m->fn);
    return result;
}

/* `call_found` for effect. */
static int
invoke(method *m, PyObject **args, size_t nargs, PyObject *kwnames)
{
    PyObject *result = call_found(m, args, nargs, kwnames);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* `call_found` answered as an int. */
static int
found_long(method *m, PyObject **args, size_t nargs, long *out)
{
    PyObject *answer = call_found(m, args, nargs, NULL);
    int failed = answer == NULL ? -1 : as_long(answer, out);
    Py_XDECREF(answer);
    return failed;
}

/* `int(owner.<name>)`. */
static int
attr_long(PyObject *owner, PyObject *name, long *out)
{
    PyObject *value = get_attr(owner, name);
    int failed;
    if (value == NULL)
        return -1;
    failed = as_long(value, out);
    Py_DECREF(value);
    return failed;
}

/* `owner.<name> = v`. */
static int
set_attr_long(PyObject *owner, PyObject *name, long v)
{
    PyObject *value = PyLong_FromLong(v);
    int failed;
    if (value == NULL)
        return -1;
    failed = set_attr(owner, name, value);
    Py_DECREF(value);
    return failed;
}

/* A tuple of `n` items, each a new reference it takes over; NULL if any
 * item is (the others are released). */
static PyObject *
steal_tuple(Py_ssize_t n, ...)
{
    PyObject *t = PyTuple_New(n);
    Py_ssize_t i;
    int complete = t != NULL;
    va_list items;
    va_start(items, n);
    for (i = 0; i < n; i++) {
        PyObject *o = va_arg(items, PyObject *);
        complete = complete && o != NULL;
        if (complete)
            PyTuple_SET_ITEM(t, i, o);
        else
            Py_XDECREF(o);
    }
    va_end(items);
    if (!complete)
        Py_CLEAR(t);
    return t;
}

static inline PyObject *
call_method(PyObject *name, PyObject **args, size_t nargs)
{
    method m;
    return resolve(args[0], name, &m) < 0 ? NULL : call_found(&m, args, nargs, NULL);
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

/* The global `name` of the module of `function`, a stock Python function
 * (borrowed), as its body would look it up. */
static PyObject *
global_of(PyObject *function, PyObject *name)
{
    PyObject *found = PyDict_GetItemWithError(PyFunction_GET_GLOBALS(function), name);
    if (found == NULL && !PyErr_Occurred())
        PyErr_Format(PyExc_NameError, "name '%U' is not defined", name);
    return found;
}

/* ------------------------------------------------------------------ draws */
/* `int(rng.integers(low, high))`, the one bounded draw of a run: the module's
 * `integers` (what `repro.draws.integers` binds to) and the triggers' `draw`
 * share `bounded_draw`.  It transcribes the scalar int64 path of numpy's
 * `Generator.integers` where that path is `buffered_bounded_lemire_uint32`
 * over the bit generator's own `next_uint32`: for an exact `Generator` and
 * exact int bounds with `0 < high - low <= 2**32 - 1`, under the bit
 * generator's lock, taken without blocking.  Anything else -- another rng
 * type, numpy ints, wider or empty bounds, a lock another thread holds -- is
 * `rng.integers(low, high)` by name, so numpy raises or blocks as it would.
 * Same values, same stream. */

/* numpy/random/bitgen.h: what a bit generator's "BitGenerator" capsule
 * points to.  Declared here, so the build needs no numpy headers. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static PyObject *generator_type; /* numpy.random.Generator */

/* numpy's `buffered_bounded_lemire_uint32` for `rng = width - 1` (2 <=
 * `width` < 2**32): Lemire's multiply-and-reject. */
static uint32_t
bounded_lemire(bitgen_t *bitgen, uint32_t width)
{
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * width;
    if ((uint32_t)m < width) {
        const uint32_t threshold = (UINT32_MAX - (width - 1)) % width;
        while ((uint32_t)m < threshold)
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * width;
    }
    return (uint32_t)(m >> 32);
}

/* The transcribed case: 1 with `*out`, 0 if it does not apply (a lock
 * another thread holds included), -1 on error. */
static int
lemire_draw(PyObject *rng, PyObject *low_o, PyObject *high_o, long long *out)
{
    PyObject *bit_generator, *capsule, *lock = NULL, *held = NULL;
    bitgen_t *bitgen;
    long long low, high;
    int overflow_low, overflow_high, status = -1;
    unsigned long long width;
    if ((PyObject *)Py_TYPE(rng) != generator_type || !PyLong_CheckExact(low_o)
        || !PyLong_CheckExact(high_o))
        return 0;
    /* Exact ints: these cannot fail, only overflow. */
    low = PyLong_AsLongLongAndOverflow(low_o, &overflow_low);
    high = PyLong_AsLongLongAndOverflow(high_o, &overflow_high);
    if (overflow_low || overflow_high || low >= high
        || (width = (unsigned long long)high - (unsigned long long)low) > UINT32_MAX - 1)
        return 0;
    if (width == 1) { /* numpy draws nothing */
        *out = low;
        return 1;
    }
    if ((bit_generator = get_attr(rng, s_bit_generator)) == NULL)
        return -1;
    if ((capsule = get_attr(bit_generator, s_capsule)) != NULL
        && (bitgen = PyCapsule_GetPointer(capsule, "BitGenerator")) != NULL
        && (lock = get_attr(bit_generator, s_lock)) != NULL) {
        PyObject *args[2] = {lock, Py_False};
        if ((held = call_method(s_acquire, args, 2)) != NULL) {
            status = 0;
            if (held == Py_True) {
                *out = low + (long long)bounded_lemire(bitgen, (uint32_t)width);
                status = call_void(s_release, &lock, 1) < 0 ? -1 : 1;
            }
        }
    }
    Py_XDECREF(held);
    Py_XDECREF(lock);
    Py_XDECREF(capsule);
    Py_DECREF(bit_generator);
    return status;
}

/* `int(rng.integers(low, high))`: a new int. */
static PyObject *
bounded_draw(PyObject *rng, PyObject *low, PyObject *high)
{
    PyObject *args[3] = {rng, low, high}, *drawn, *as_int;
    long long value;
    int status = lemire_draw(rng, low, high, &value);
    if (status != 0)
        return status < 0 ? NULL : PyLong_FromLongLong(value);
    if ((drawn = call_method(s_integers, args, 3)) == NULL)
        return NULL;
    as_int = PyNumber_Long(drawn);
    Py_DECREF(drawn);
    return as_int;
}

static PyObject *
module_integers(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "integers() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    return bounded_draw(args[0], args[1], args[2]);
}

/* `list[i] += delta` (`i` a Python int). */
static int
add_at(PyObject *list, PyObject *i_o, long delta)
{
    long i;
    PyObject *value, *sum;
    if (as_long(i_o, &i) < 0 || (value = item(list, i)) == NULL)
        return -1;
    Py_INCREF(value);
    sum = delta > 0 ? PyNumber_InPlaceAdd(value, one) : PyNumber_InPlaceSubtract(value, one);
    Py_DECREF(value);
    return set_item(list, i, sum);
}

/* ---------------------------------------------------------- packet fields */
/* A packet whose type is exactly `Packet` keeps its fields in `__slots__`,
 * read and written at their offsets; anything else goes through getattr /
 * setattr.  A new reference. */
static PyObject *
pget(Core *c, PyObject *packet, int f)
{
    if (Py_IS_TYPE(packet, c->packet_type)) {
        PyObject *value = *(PyObject **)((char *)packet + c->offset[f]);
        if (value != NULL)
            return Py_NewRef(value);
    }
    return get_attr(packet, field_names[f]);
}

/* `packet.<f> = value`. */
static int
pset(Core *c, PyObject *packet, int f, PyObject *value)
{
    if (Py_IS_TYPE(packet, c->packet_type)) {
        PyObject **slot = (PyObject **)((char *)packet + c->offset[f]), *old = *slot;
        *slot = Py_NewRef(value);
        Py_XDECREF(old);
        return 0;
    }
    return set_attr(packet, field_names[f], value);
}

static int
pget_long(Core *c, PyObject *packet, int f, long *out)
{
    PyObject *value = pget(c, packet, f);
    int failed;
    if (value == NULL)
        return -1;
    failed = as_long(value, out);
    Py_DECREF(value);
    return failed;
}

/* `bool(packet.<f>)`: 1 / 0, -1 on error. */
static int
ptruth(Core *c, PyObject *packet, int f)
{
    PyObject *value = pget(c, packet, f);
    int on;
    if (value == NULL)
        return -1;
    on = truth(value);
    Py_DECREF(value);
    return on;
}

/* `packet.<f> is value`: 1 / 0, -1 on error. */
static int
pis(Core *c, PyObject *packet, int f, PyObject *value)
{
    PyObject *held = pget(c, packet, f);
    int same;
    if (held == NULL)
        return -1;
    same = held == value;
    Py_DECREF(held);
    return same;
}

/* `packet.<f> += 1`. */
static int
pincr(Core *c, PyObject *packet, int f)
{
    PyObject *value = pget(c, packet, f), *sum;
    int failed;
    if (value == NULL)
        return -1;
    sum = PyNumber_InPlaceAdd(value, one);
    Py_DECREF(value);
    if (sum == NULL)
        return -1;
    failed = pset(c, packet, f, sum);
    Py_DECREF(sum);
    return failed;
}

/* ------------------------------------------------------------- properties */
/* Whether `super(owner, self).<name>` is the stock function `function`: the
 * first class after `owner` in `type(self).__mro__` whose namespace holds
 * `name` is the one `super()` finds.  1 / 0, -1 on error. */
static int
super_is(PyObject *self, PyObject *owner, PyObject *name, PyObject *function)
{
    return mro_resolves(Py_TYPE(self), name, owner, function);
}

/* Whether `type(obj).<name>` is the stock property `property` (a data
 * descriptor: the instance cannot shadow it).  1 / 0, -1 on error. */
static int
type_holds(PyObject *obj, PyObject *name, PyObject *property)
{
    return mro_resolves(Py_TYPE(obj), name, NULL, property);
}

/* `obj.<name> += delta`. */
static int
attr_iadd(PyObject *obj, PyObject *name, PyObject *delta)
{
    PyObject *value = get_attr(obj, name), *sum;
    int failed;
    if (value == NULL)
        return -1;
    sum = PyNumber_InPlaceAdd(value, delta);
    Py_DECREF(value);
    if (sum == NULL)
        return -1;
    failed = set_attr(obj, name, sum);
    Py_DECREF(sum);
    return failed;
}

/* ---------------------------------------------------------- routing hooks */
/* Each hook below resolves its name on the routing instance and runs the
 * stock body it found (the Python function named in its comment, statement
 * for statement), or calls what it found with the object engine's arguments
 * `(view, port, vc, packet, ...)`.  A stock body resolves its own method
 * calls (`self.tracker.on_head`, `self._maybe_count_partial`, ...) the same
 * way at the point the Python body makes them, and `super()` through the
 * instance type's MRO before it has changed anything. */

/* `hook(args)` by name after all, `args[1]` being the view of router `rid`. */
static int
invoke_on_view(Core *c, method *m, long rid, PyObject **args, size_t nargs)
{
    if ((args[1] = item(L(c, views), rid)) == NULL) {
        Py_CLEAR(m->fn);
        return -1;
    }
    return invoke(m, args, nargs, NULL);
}

/* ------------------------------------------------------- topology queries */
/* While the topology resolves a query's name to the `DragonflyTopology`
 * function `SoAEngine` handed over, the query is answered here from that
 * function's arithmetic or tables (`df_a > 0`: a Dragonfly's constants are
 * bound); otherwise it is the call by name, made where and as often as the
 * Python body makes it.  Every other topology keeps the call. */
enum query { Q_ROUTER_REGION, Q_NODE_REGION, Q_NODE_ROUTER };

static PyObject **const query_names[] = {&s_router_region, &s_node_region, &s_node_router};
static const int query_stock[] = {
    S_DragonflyTopology_router_region, S_DragonflyTopology_node_region,
    S_DragonflyTopology_node_router};

/* Whether `m` is the stock Dragonfly function in slot `slot`. */
static inline int
df_stock(Core *c, method *m, int slot)
{
    return c->df_a > 0 && stock(m, c->o[slot]);
}

/* Call what `resolve` found on `topology` with the ints `x` (and `y` where
 * `nargs` is 2): the answer as a long; gives up `m`. */
static int
ask_by_name(PyObject *topology, method *m, long x, long y, size_t nargs, long *out)
{
    PyObject *x_o = PyLong_FromLong(x), *y_o = nargs > 1 ? PyLong_FromLong(y) : NULL;
    PyObject *answer = NULL;
    int failed = -1;
    if (x_o != NULL && (nargs < 2 || y_o != NULL)) {
        PyObject *args[3] = {topology, x_o, y_o};
        answer = call_found(m, args, 1 + nargs, NULL);
    }
    else
        Py_CLEAR(m->fn);
    if (answer != NULL) {
        failed = as_long(answer, out);
        Py_DECREF(answer);
    }
    Py_XDECREF(y_o);
    Py_XDECREF(x_o);
    return failed;
}

/* `topology.<name>` of a Dragonfly's constant (`_p`, `_a`, ...): `bound`
 * on the routing's own, else the attribute (a pattern may hold another
 * instance of the same topology). */
static int
df_attr(Core *c, PyObject *topology, PyObject *name, long bound, long *out)
{
    if (c->df_a > 0 && topology == L(c, topology)) {
        *out = bound;
        return 0;
    }
    return attr_long(topology, name, out);
}

/* `topology.<query>(x)` -- the routing's topology or another instance (a
 * traffic pattern's): the region or group of a router or a node, or a
 * node's router. */
static int
ask_of(Core *c, PyObject *topology, enum query q, long x, long *out)
{
    long p = 1, a = 1, divisor;
    method m;
    if (resolve(topology, *query_names[q], &m) < 0)
        return -1;
    if (!stock(&m, c->o[query_stock[q]]))
        return ask_by_name(topology, &m, x, 0, 1, out);
    Py_CLEAR(m.fn);
    if ((q != Q_ROUTER_REGION && df_attr(c, topology, s__p, c->df_p, &p) < 0)
        || (q != Q_NODE_ROUTER && df_attr(c, topology, s__a, c->df_a, &a) < 0))
        return -1;
    divisor = q == Q_NODE_ROUTER ? p : q == Q_NODE_REGION ? p * a : a;
    if (divisor <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return -1;
    }
    *out = pydiv(x, divisor);
    return 0;
}

/* `ask_of` the routing's topology. */
static inline int
ask(Core *c, enum query q, long x, long *out)
{
    return ask_of(c, L(c, topology), q, x, out);
}

/* `DragonflyTopology._route_port(rid, dst_router)` of two distinct routers:
 * the local port towards the destination router in its own group, else the
 * global port of the link between the groups or the local port towards its
 * owner. */
static int
df_route_port(Core *c, long rid, long dst_router, long *port)
{
    long a = c->df_a, group = pydiv(rid, a), dst_group = pydiv(dst_router, a);
    long pos = pymod(rid, a), to = pymod(dst_router, a), offset;
    if (group != dst_group) {
        if (get_long(L(c, link_offsets), group * c->df_groups + dst_group, &offset) < 0)
            return -1;
        to = pydiv(offset, c->df_h);
        if (to == pos) {
            *port = c->df_p + a - 1 + pymod(offset, c->df_h);
            return 0;
        }
    }
    *port = c->df_p + (to < pos ? to : to - 1);
    return 0;
}

/* `topology.minimal_output_port(rid, dst)` (`dst` a node) or, with
 * `to_router`, `topology.minimal_route_to_router(rid, dst)`: the entry of
 * the Dragonfly's route table, filled here on a miss while `_route_port` is
 * stock too (else the call by name fills it). */
static int
route(Core *c, long rid, long dst, int to_router, long *port)
{
    method m;
    if (resolve(L(c, topology), to_router ? s_minimal_route_to_router : s_minimal_output_port,
                &m) < 0)
        return -1;
    if (df_stock(c, &m, to_router ? S_DragonflyTopology_minimal_route_to_router
                                  : S_DragonflyTopology_minimal_output_port)) {
        long dst_router = to_router ? dst : pydiv(dst, c->df_p);
        if (!to_router && rid == dst_router) {
            Py_CLEAR(m.fn);
            *port = pymod(dst, c->df_p);
            return 0;
        }
        if (rid != dst_router && (unsigned long)rid < (unsigned long)c->df_routers
            && (unsigned long)dst_router < (unsigned long)c->df_routers) {
            PyObject *table = L(c, route_table);
            Py_ssize_t key = (Py_ssize_t)rid * c->df_routers + dst_router;
            unsigned char entry = key < PyByteArray_GET_SIZE(table)
                                  ? (unsigned char)PyByteArray_AS_STRING(table)[key] : 0xFF;
            method fill;
            int filled;
            if (entry != 0xFF) {
                Py_CLEAR(m.fn);
                *port = entry;
                return 0;
            }
            if (key >= PyByteArray_GET_SIZE(table) || resolve(L(c, topology), s__route_port, &fill) < 0) {
                Py_CLEAR(m.fn);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_IndexError, "bytearray index out of range");
                return -1;
            }
            filled = stock(&fill, STOCK(c, DragonflyTopology, _route_port));
            Py_CLEAR(fill.fn);
            if (filled) {
                Py_CLEAR(m.fn);
                if (df_route_port(c, rid, dst_router, port) < 0)
                    return -1;
                PyByteArray_AS_STRING(table)[key] = (char)*port;
                return 0;
            }
        }
    }
    return ask_by_name(L(c, topology), &m, rid, dst, 2, port);
}

/* `topology.router_hops(a, b)`: on the Dragonfly at most one local hop to
 * the owner of the link between the two groups, the link, at most one local
 * hop from where it lands. */
static int
hops(Core *c, long a, long b, long *out)
{
    long group, dst_group, there, back;
    method m;
    if (resolve(L(c, topology), s_router_hops, &m) < 0)
        return -1;
    if (!df_stock(c, &m, S_DragonflyTopology_router_hops))
        return ask_by_name(L(c, topology), &m, a, b, 2, out);
    Py_CLEAR(m.fn);
    group = pydiv(a, c->df_a);
    dst_group = pydiv(b, c->df_a);
    if (a == b || group == dst_group) {
        *out = a != b;
        return 0;
    }
    if (get_long(L(c, link_offsets), group * c->df_groups + dst_group, &there) < 0
        || get_long(L(c, link_offsets), dst_group * c->df_groups + group, &back) < 0)
        return -1;
    *out = 1 + (a != group * c->df_a + pydiv(there, c->df_h))
           + (b != dst_group * c->df_a + pydiv(back, c->df_h));
    return 0;
}

/* ---------------------------------------------- properties and draws */
/* `bool(obj.<name>)`: 1 / 0, -1 on error. */
static int
ptruth_attr(PyObject *obj, PyObject *name)
{
    PyObject *value = get_attr(obj, name);
    int on;
    if (value == NULL)
        return -1;
    on = truth(value);
    Py_DECREF(value);
    return on;
}

/* `topology.<property>` (`name`): while the topology's type holds the stock
 * `DragonflyTopology` property in `slot`, the constant it returns; else the
 * attribute. */
static int
topology_count(Core *c, PyObject *topology, PyObject *name, int slot, long *out)
{
    long p;
    int on = type_holds(topology, name, c->o[slot]);
    if (on > 0 && slot == S_DragonflyTopology_num_nodes) /* `self.num_routers * self._p` */
        on = type_holds(topology, s_num_routers, STOCK(c, DragonflyTopology, num_routers));
    if (on <= 0)
        return on < 0 ? -1 : attr_long(topology, name, out);
    if (slot == S_DragonflyTopology_num_routers)
        return df_attr(c, topology, s__num_routers, c->df_routers, out);
    if (slot == S_DragonflyTopology_num_nodes) {
        if (df_attr(c, topology, s__num_routers, c->df_routers, out) < 0
            || df_attr(c, topology, s__p, c->df_p, &p) < 0)
            return -1;
        *out *= p;
        return 0;
    }
    return slot == S_DragonflyTopology_num_regions
           ? df_attr(c, topology, s__num_groups, c->df_groups, out)
           : slot == S_DragonflyTopology_routers_per_region
           ? df_attr(c, topology, s__a, c->df_a, out)
           : df_attr(c, topology, s__p, c->df_p, out);
}

/* `draws.integers(rng, low, high)` (a new reference): `bounded_draw` while
 * the module holds this module's `integers`, else a call of what it holds. */
static PyObject *
draw_between(Core *c, PyObject *rng, PyObject *low, PyObject *high)
{
    PyObject *integers = get_attr(L(c, draws), s_integers), *drawn;
    PyObject *args[3] = {rng, low, high};
    if (integers == NULL)
        return NULL;
    drawn = PyCFunction_Check(integers)
                    && PyCFunction_GET_FUNCTION(integers)
                           == (PyCFunction)(void (*)(void))module_integers
                ? bounded_draw(rng, low, high)
                : PyObject_Vectorcall(integers, args, 3, NULL);
    Py_DECREF(integers);
    return drawn;
}

/* `AdaptiveInTransitRouting.on_packet_arrival`: a packet that reached its
 * intermediate group continues minimally. */
static int
group_reached(Core *c, long rid, PyObject *packet)
{
    PyObject *target;
    long region, wanted;
    int on = pis(c, packet, F_phase, L(c, TO_INTERMEDIATE));
    if (on <= 0)
        return on;
    if ((target = pget(c, packet, F_intermediate_group)) == NULL)
        return -1;
    on = target == Py_None ? 0
         : ask(c, Q_ROUTER_REGION, rid, &region) < 0 || as_long(target, &wanted) < 0 ? -1
         : region == wanted;
    Py_DECREF(target);
    if (on <= 0)
        return on;
    if (pset(c, packet, F_intermediate_group, Py_None) < 0
        || pset(c, packet, F_phase, L(c, MINIMAL)) < 0)
        return -1;
    return 0;
}

/* `ValiantRouting.on_packet_arrival`: at its intermediate router a packet
 * starts its second leg. */
static int
valiant_reached(Core *c, long rid, PyObject *packet)
{
    PyObject *via, *rid_o, *minus_one;
    int on = pis(c, packet, F_phase, L(c, TO_INTERMEDIATE));
    if (on <= 0)
        return on;
    if ((via = pget(c, packet, F_valiant_router)) == NULL)
        return -1;
    on = (rid_o = PyLong_FromLong(rid)) == NULL ? -1 : PyObject_RichCompareBool(via, rid_o, Py_EQ);
    Py_XDECREF(rid_o);
    Py_DECREF(via);
    if (on <= 0)
        return on;
    if ((minus_one = PyLong_FromLong(-1)) == NULL)
        return -1;
    on = pset(c, packet, F_valiant_router, Py_None) < 0
         || pset(c, packet, F_phase, L(c, MINIMAL)) < 0 || pset(c, packet, F_vc_leg, one) < 0
         || pset(c, packet, F_ring_dim, minus_one) < 0
         || pset(c, packet, F_ring_crossed, Py_False) < 0 || pset(c, packet, F_ring_dir, zero) < 0;
    Py_DECREF(minus_one);
    return on ? -1 : 0;
}

/* `self.partial[rid]`, borrowed. */
static PyObject *
partial_of(Core *c, long rid)
{
    PyObject *rid_o, *counts;
    if (!PyDict_Check(L(c, partial))) {
        PyErr_SetString(PyExc_TypeError, "ECtN's partial arrays must be a dict");
        return NULL;
    }
    if ((rid_o = PyLong_FromLong(rid)) == NULL)
        return NULL;
    counts = PyDict_GetItemWithError(L(c, partial), rid_o);
    if (counts == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_KeyError, rid_o);
    Py_DECREF(rid_o);
    if (counts != NULL && expect_list(counts, "an ECtN partial array") < 0)
        return NULL;
    return counts;
}

/* `self.link_offset_for_destination(group, dst_group)` of ECtN (a new
 * reference): the entry of the Dragonfly's link-offset table while stock. */
static PyObject *
link_offset(Core *c, long group, long dst_group)
{
    PyObject *routing = c->o[S_routing], *group_o, *dst_o, *offset = NULL;
    method m;
    if (resolve(routing, s_link_offset_for_destination, &m) < 0)
        return NULL;
    if (c->df_a > 0 && stock(&m, STOCK(c, ECtNRouting, link_offset_for_destination))) {
        Py_CLEAR(m.fn);
        offset = item(L(c, link_offsets), group * c->df_groups + dst_group);
        Py_XINCREF(offset);
        return offset;
    }
    group_o = PyLong_FromLong(group);
    dst_o = PyLong_FromLong(dst_group);
    if (group_o != NULL && dst_o != NULL) {
        PyObject *args[3] = {routing, group_o, dst_o};
        offset = call_found(&m, args, 3, NULL);
    }
    else
        Py_CLEAR(m.fn);
    Py_XDECREF(dst_o);
    Py_XDECREF(group_o);
    return offset;
}

/* `self._maybe_count_partial(router, packet)` of ECtN's stock hooks: a
 * packet bound for another group counts on its minimal global link. */
static int
count_partial(Core *c, long rid, PyObject *packet)
{
    PyObject *routing = c->o[S_routing], *offset, *counts;
    long group, dst, dst_group;
    method m;
    int failed, same;
    if (resolve(routing, s__maybe_count_partial, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, ECtNRouting, _maybe_count_partial))) {
        PyObject *args[3] = {routing, NULL, packet};
        return invoke_on_view(c, &m, rid, args, 3);
    }
    Py_CLEAR(m.fn);
    if ((same = pis(c, packet, F_ectn_offset, Py_None)) <= 0)
        return same;
    if (ask(c, Q_ROUTER_REGION, rid, &group) < 0 || pget_long(c, packet, F_dst, &dst) < 0
        || ask(c, Q_NODE_REGION, dst, &dst_group) < 0)
        return -1;
    if (dst_group == group)
        return 0;
    if ((offset = link_offset(c, group, dst_group)) == NULL)
        return -1;
    failed = (counts = partial_of(c, rid)) == NULL || add_at(counts, offset, 1) < 0
             || pset(c, packet, F_ectn_offset, offset) < 0;
    Py_DECREF(offset);
    return failed ? -1 : 0;
}

/* `ContentionTracker.on_head`: the counter of the head's minimal output
 * goes up while it is the head (Section III-B). */
static int
counter_up(Core *c, long rid, PyObject *packet)
{
    PyObject *minimal, *counters, *counts;
    long dst, port;
    int failed = -1, none = pis(c, packet, F_contention_port, Py_None);
    if (none <= 0)
        return none;
    if (pget_long(c, packet, F_dst, &dst) < 0 || route(c, rid, dst, 0, &port) < 0
        || (minimal = PyLong_FromLong(port)) == NULL)
        return -1;
    if ((counters = item(L(c, counters), rid)) != NULL
        && (counts = get_attr(counters, s_counts)) != NULL) {
        if (expect_list(counts, "a counter array") == 0 && add_at(counts, minimal, 1) == 0
            && pset(c, packet, F_contention_port, minimal) == 0)
            failed = 0;
        Py_DECREF(counts);
    }
    Py_DECREF(minimal);
    return failed;
}

/* `ContentionTracker.on_leave`, with `ContentionCounters.decrement`: the
 * counter goes down when the packet leaves the input buffer. */
static int
counter_down(Core *c, long rid, PyObject *packet)
{
    PyObject *port, *counters, *counts = NULL;
    method m;
    int failed = -1;
    if ((port = pget(c, packet, F_contention_port)) == NULL)
        return -1;
    if (port == Py_None) {
        Py_DECREF(port);
        return 0;
    }
    if ((counters = item(L(c, counters), rid)) == NULL || resolve(counters, s_decrement, &m) < 0)
        goto done;
    if (!stock(&m, STOCK(c, ContentionCounters, decrement))) {
        PyObject *args[2] = {counters, port};
        Py_INCREF(counters);
        failed = invoke(&m, args, 2, NULL);
        Py_DECREF(counters);
    }
    else {
        long at, value;
        Py_CLEAR(m.fn);
        if ((counts = get_attr(counters, s_counts)) == NULL
            || expect_list(counts, "a counter array") < 0 || as_long(port, &at) < 0
            || get_long(counts, at, &value) < 0)
            goto done;
        if (value <= 0) {
            PyErr_Format(PyExc_RuntimeError, "contention counter underflow on port %S", port);
            goto done;
        }
        failed = add_at(counts, port, -1);
    }
    if (!failed)
        failed = pset(c, packet, F_contention_port, Py_None);
done:
    Py_XDECREF(counts);
    Py_DECREF(port);
    return failed;
}

/* `self.tracker.on_head(router, packet)` / `on_leave` of the Base family's
 * stock hooks. */
static int
track(Core *c, long rid, PyObject *packet, int leave)
{
    PyObject *tracker = L(c, tracker);
    method m;
    if (resolve(tracker, leave ? s_on_leave : s_on_head, &m) < 0)
        return -1;
    if (!stock(&m, leave ? STOCK(c, ContentionTracker, on_leave)
                         : STOCK(c, ContentionTracker, on_head))) {
        PyObject *args[3] = {tracker, NULL, packet};
        return invoke_on_view(c, &m, rid, args, 3);
    }
    Py_CLEAR(m.fn);
    return leave ? counter_down(c, rid, packet) : counter_up(c, rid, packet);
}

/* The rest of `ECtNRouting.on_packet_leave_input`: the partial counter the
 * packet held goes down. */
static int
partial_down(Core *c, long rid, PyObject *packet)
{
    PyObject *offset, *counts;
    long at, value;
    int failed = -1;
    if ((offset = pget(c, packet, F_ectn_offset)) == NULL)
        return -1;
    if (offset == Py_None) {
        Py_DECREF(offset);
        return 0;
    }
    if ((counts = partial_of(c, rid)) != NULL && as_long(offset, &at) == 0
        && get_long(counts, at, &value) == 0) {
        if (value <= 0)
            PyErr_SetString(PyExc_RuntimeError, "ECtN partial counter underflow");
        else if (add_at(counts, offset, -1) == 0)
            failed = pset(c, packet, F_ectn_offset, Py_None);
    }
    Py_DECREF(offset);
    return failed;
}

/* Whether the routing's tracker with its counter arrays (and ECtN's partial
 * arrays, `ectn`) were bound: a stock Base-family body reads them. */
static inline int
tracked(Core *c, int ectn)
{
    return PyList_Check(L(c, counters)) && (!ectn || PyDict_Check(L(c, partial)));
}

/* `routing.on_packet_arrival(view, port, vc, packet, cycle)`. */
static int
arrival_hook(Core *c, long rid, long port, PyObject *port_o, PyObject *vc_o, PyObject *packet,
             PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    int on = 0;
    if (resolve(routing, s_on_packet_arrival, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, AdaptiveInTransitRouting, on_packet_arrival))) {
        Py_CLEAR(m.fn);
        return group_reached(c, rid, packet);
    }
    if (stock(&m, STOCK(c, ValiantRouting, on_packet_arrival))) {
        Py_CLEAR(m.fn);
        return valiant_reached(c, rid, packet);
    }
    if (stock(&m, STOCK(c, ECtNRouting, on_packet_arrival)) && tracked(c, 1)
        && (on = super_is(routing, L(c, ECtNRouting), s_on_packet_arrival,
                          STOCK(c, AdaptiveInTransitRouting, on_packet_arrival))) > 0) {
        Py_CLEAR(m.fn);
        if (group_reached(c, rid, packet) < 0 || (on = port_is(c, S_kind_is_global, port)) < 0)
            return -1;
        return on ? count_partial(c, rid, packet) : 0;
    }
    if (on < 0) {
        Py_CLEAR(m.fn);
        return -1;
    }
    {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        return invoke_on_view(c, &m, rid, args, 6);
    }
}

/* `routing.on_packet_head(view, port, vc, packet, cycle)`. */
static int
head_hook(Core *c, long rid, long port, PyObject *port_o, PyObject *vc_o, PyObject *packet,
          PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    int on = 0;
    if (resolve(routing, s_on_packet_head, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, BaseContentionRouting, on_packet_head)) && tracked(c, 0)) {
        Py_CLEAR(m.fn);
        return track(c, rid, packet, 0);
    }
    if (stock(&m, STOCK(c, ECtNRouting, on_packet_head)) && tracked(c, 1)
        && (on = super_is(routing, L(c, ECtNRouting), s_on_packet_head,
                          STOCK(c, BaseContentionRouting, on_packet_head))) > 0) {
        Py_CLEAR(m.fn);
        if (track(c, rid, packet, 0) < 0 || (on = port_is(c, S_kind_is_injection, port)) < 0)
            return -1;
        return on ? count_partial(c, rid, packet) : 0;
    }
    if (on < 0) {
        Py_CLEAR(m.fn);
        return -1;
    }
    {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        return invoke_on_view(c, &m, rid, args, 6);
    }
}

/* `routing.on_packet_leave_input(view, port, vc, packet, cycle)`. */
static int
leave_hook(Core *c, long rid, PyObject *port_o, PyObject *vc_o, PyObject *packet,
           PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    int on = 0;
    if (resolve(routing, s_on_packet_leave_input, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, BaseContentionRouting, on_packet_leave_input)) && tracked(c, 0)) {
        Py_CLEAR(m.fn);
        return track(c, rid, packet, 1);
    }
    if (stock(&m, STOCK(c, ECtNRouting, on_packet_leave_input)) && tracked(c, 1)
        && (on = super_is(routing, L(c, ECtNRouting), s_on_packet_leave_input,
                          STOCK(c, BaseContentionRouting, on_packet_leave_input))) > 0) {
        Py_CLEAR(m.fn);
        return track(c, rid, packet, 1) < 0 ? -1 : partial_down(c, rid, packet);
    }
    if (on < 0) {
        Py_CLEAR(m.fn);
        return -1;
    }
    {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        return invoke_on_view(c, &m, rid, args, 6);
    }
}

/* `RoutingAlgorithm.on_grant`: commit what the decision (an exact
 * `RoutingDecision`, read by field position) says to the packet. */
static int
commit_decision(Core *c, long rid, PyObject *port_o, PyObject *vc_o, PyObject *packet,
                PyObject *decision, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *field_o, *sub;
    long out_port;
    int on;
#define FIELD(n) PyTuple_GET_ITEM(decision, D_##n)
    if ((field_o = FIELD(set_intermediate_group)) != Py_None
        && (pset(c, packet, F_intermediate_group, field_o) < 0
            || pset(c, packet, F_phase, L(c, TO_INTERMEDIATE)) < 0))
        return -1;
    if ((on = truth(FIELD(set_must_misroute_global))) < 0)
        return -1;
    if (on) {
        if (pset(c, packet, F_must_misroute_global, Py_True) < 0)
            return -1;
    }
    else if (as_long(FIELD(output_port), &out_port) < 0
             || (on = port_is(c, S_kind_is_global, out_port)) < 0
             || (on && pset(c, packet, F_must_misroute_global, Py_False) < 0))
        return -1;
    if ((on = truth(FIELD(nonminimal_global))) < 0)
        return -1;
    if (on) {
        if ((on = ptruth(c, packet, F_globally_misrouted)) < 0)
            return -1;
        if (!on
            && (pset(c, packet, F_globally_misrouted, Py_True) < 0
                || (on = pis(c, packet, F_misroute_recorded_cycle, Py_None)) < 0
                || (on && pset(c, packet, F_misroute_recorded_cycle, cycle_o) < 0)))
            return -1;
    }
    if ((on = truth(FIELD(nonminimal_local))) < 0
        || (on && pset(c, packet, F_locally_misrouted, Py_True) < 0)
        || (on = truth(FIELD(set_fault_mode))) < 0)
        return -1;
    if (on) {
        PyObject *args[3] = {routing, packet, decision};
        if (call_void(s__commit_fault_hop, args, 3) < 0)
            return -1;
    }
    if ((sub = get_attr(routing, s__dateline)) == NULL)
        return -1;
    if (sub != Py_None) {
        PyObject *rid_o = PyLong_FromLong(rid);
        PyObject *args[4] = {sub, packet, rid_o, FIELD(output_port)};
        on = rid_o == NULL || call_void(s_commit_ring_hop, args, 4) < 0;
        Py_XDECREF(rid_o);
        if (on) {
            Py_DECREF(sub);
            return -1;
        }
    }
    Py_DECREF(sub);
    if ((sub = get_attr(routing, s__obs)) == NULL)
        return -1;
    on = 0;
    if (sub != Py_None) {
        PyObject *view = item(L(c, views), rid);
        PyObject *args[8] = {sub, routing, view, port_o, vc_o, packet, decision, cycle_o};
        on = view == NULL || call_void(s_record_grant, args, 8) < 0;
    }
    Py_DECREF(sub);
    return on ? -1 : 0;
#undef FIELD
}

/* `routing.on_grant(view, port, vc, packet, decision, cycle)`. */
static int
grant_hook(Core *c, long rid, PyObject *port_o, PyObject *vc_o, PyObject *packet,
           PyObject *decision, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    if (resolve(routing, s_on_grant, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, RoutingAlgorithm, on_grant))
        && Py_IS_TYPE(decision, (PyTypeObject *)L(c, RoutingDecision))) {
        Py_CLEAR(m.fn);
        return commit_decision(c, rid, port_o, vc_o, packet, decision, cycle_o);
    }
    {
        PyObject *args[7] = {routing, NULL, port_o, vc_o, packet, decision, cycle_o};
        return invoke_on_view(c, &m, rid, args, 7);
    }
}

/* `packet.record_hop(is_global=...)`. */
static int
record_hop(Core *c, PyObject *packet, PyObject *is_global)
{
    method m;
    int on;
    if (resolve(packet, s_record_hop, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, Packet, record_hop))) {
        PyObject *args[2] = {packet, is_global};
        return invoke(&m, args, 1, kw_is_global);
    }
    Py_CLEAR(m.fn);
    if (pincr(c, packet, F_hops) < 0 || (on = truth(is_global)) < 0)
        return -1;
    if (on)
        return pincr(c, packet, F_global_hops) < 0
               || pset(c, packet, F_local_hops_in_group, zero) < 0 ? -1 : 0;
    return pincr(c, packet, F_local_hops) < 0 || pincr(c, packet, F_local_hops_in_group) < 0
           ? -1 : 0;
}
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
    else if ((active = get_attr(c->o[S_st], s_active)) == NULL)
        return -1;
    failed = expect_list(active, "st.active") < 0 || append_long(active, rid) < 0
             || set_attr(c->o[S_st], s_unsorted, Py_True) < 0;
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
            || get_col(c, credits, q, &have) < 0
            || set_col(c, credits, q, have + phits) < 0
            || get_col(c, credit_occ, g, &occupied) < 0
            || set_col(c, credit_occ, g, occupied - phits) < 0
            || get_col(c, max_credits, q, &most) < 0)
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
/* Store `packet` (`size` phits) into VC `vc` of input port `port` of router
 * `rid`: a new buffer head gives the router work it must re-evaluate.
 * `active` is `st.active` when the caller has it. */
static int
push(Core *c, long rid, long port, long vc, PyObject *packet, long size, PyObject *active)
{
    long q = (rid * c->P + port) * c->V + vc, free_phits;
    PyObject *dq;
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
    if (expect_list(dq, "st.in_q[q]") < 0 || get_col(c, in_free, q, &free_phits) < 0)
        return -1;
    if (free_phits < size) {
        PyErr_Format(PyExc_OverflowError, "VC buffer overflow: %ld phits requested, %ld free",
                     size, free_phits);
        return -1;
    }
    if (PyList_Append(dq, packet) < 0 || set_col(c, in_free, q, free_phits - size) < 0)
        return -1;
    return 0;
}

/* One link arrival `(g, vc, packet)`. */
static int
receive(Core *c, PyObject *event, PyObject *cycle_o, PyObject *active)
{
    PyObject *packet;
    long g, vc, rid, port, size;
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
    if (pget_long(c, packet, F_size_phits, &size) < 0
        || push(c, rid, port, vc, packet, size, active) < 0)
        return -1;
    if (c->notify_arrival) {
        PyObject *port_o = PyLong_FromLong(port);
        int failed = port_o == NULL
                     || arrival_hook(c, rid, port, port_o, PyTuple_GET_ITEM(event, 1), packet,
                                     cycle_o) < 0;
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
        || (size_o = pget(c, packet, F_size_phits)) == NULL
        || as_long(size_o, &size) < 0 || get_col(c, in_free, q, &free_phits) < 0
        || set_col(c, in_free, q, free_phits + size) < 0
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
        if (get_col(c, up_lat, g, &latency) < 0
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
    if (c->notify_leave && leave_hook(c, rid, port_o, vc_o, packet, cycle_o) < 0)
        goto error;
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
    PyObject *in_port_o, *in_vc_o, *decision, *size_o, *og_o;
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
    if (packet == NULL
        || grant_hook(c, rid, in_port_o, in_vc_o, packet, decision, cycle_o) < 0)
        goto done;
    if ((flag = port_is(c, S_kind_is_injection, out_port)) < 0
        || (!flag && ((flag = port_is(c, S_kind_is_global, out_port)) < 0
                      || record_hop(c, packet, flag ? Py_True : Py_False) < 0)))
        goto done;
    vc_o = Py_IS_TYPE(decision, (PyTypeObject *)L(c, RoutingDecision))
           ? Py_NewRef(PyTuple_GET_ITEM(decision, D_vc))
           : get_attr(decision, s_vc);
    if (vc_o == NULL || pset(c, packet, F_current_vc, vc_o) < 0
        || get_col(c, out_free, og, &free_phits) < 0)
        goto done;
    if (free_phits < size) {
        PyErr_Format(PyExc_OverflowError, "output buffer over-commit: %ld requested, %ld free",
                     size, free_phits);
        goto done;
    }
    if (get_col(c, out_committed, og, &committed) < 0
        || set_col(c, out_committed, og, committed + size) < 0
        || set_col(c, out_free, og, free_phits - size) < 0
        || get_col(c, credits, cq, &have) < 0)
        goto done;
    if (have < size) {
        PyErr_Format(PyExc_RuntimeError, "credit underflow on router %ld port %ld vc %S", rid,
                     out_port, vc_o);
        goto done;
    }
    if (set_col(c, credits, cq, have - size) < 0
        || get_col(c, credit_occ, og, &occupied) < 0
        || set_col(c, credit_occ, og, occupied + size) < 0
        || get_col(c, link_booked, og, &depart) < 0)
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
    if (get_col(c, ser_fac, og, &factor) < 0)
        goto done;
    done = depart + size * factor;
    if ((done_o = PyLong_FromLong(done)) == NULL
        || set_col(c, link_booked, og, done) < 0
        || get_long(L(c, down_g), og, &down) < 0)
        goto done;
    if (down >= 0) {
        long latency;
        PyObject *down_o = PyList_GET_ITEM(L(c, down_g), og);
        int append_failed;
        if (get_col(c, link_lat, og, &latency) < 0
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
        long g, size, committed, free_phits, busy;
        if (expect_tuple(event, 4, "a release") < 0 || field_long(event, 0, &g) < 0)
            return -1;
        if (g >= limit)
            break;
        i++;
        packet = PyTuple_GET_ITEM(event, 3);
        if (field_long(event, 1, &size) < 0
            || get_col(c, out_committed, g, &committed) < 0
            || set_col(c, out_committed, g, committed - size) < 0
            || get_col(c, out_free, g, &free_phits) < 0
            || set_col(c, out_free, g, free_phits + size) < 0
            || field_long(event, 2, &busy) < 0 || set_col(c, link_busy, g, busy) < 0)
            return -1;
        if (packet != Py_None) {
            /* Only now, not at the grant: `Packet.delivered` must not read
             * true for a packet still inside the router. */
            if (pset(c, packet, F_delivered_cycle, PyTuple_GET_ITEM(event, 2)) < 0
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
    Py_ssize_t stack_winners[STACK_ITEMS], *winners = stack_winners;
    char stack_seen[STACK_ITEMS], *seen = stack_seen;
    Py_ssize_t i, j, num_winners = 0, num_grants = 0;
    long P = c->P, nvc, pointer;
    int distinct = 1;
    if (get_col(c, alloc_nvc, rid, &nvc) < 0)
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
            if (set_col(c, in_ptr, base + in_port[i], pymod(vc[i] + 1, nvc)) < 0
                || set_col(c, out_ptr, base + out_port[i], pymod(in_port[i] + 1, P)) < 0)
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
        if (get_col(c, in_ptr, base + in_port[i], &pointer) < 0)
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
        if (set_col(c, in_ptr, base + in_port[i], pymod(vc[best] + 1, nvc)) < 0)
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
        if (get_col(c, out_ptr, base + port, &pointer) < 0)
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
        if (set_col(c, out_ptr, base + port, pymod(in_port[best] + 1, P)) < 0)
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

/* ------------------------------------------------------------- open gates */
/* A gate row -- `(kind, fallback request, minimal port, candidates, global
 * VC, local VC, ectn)` -- answers each round with its fallback (minimal)
 * request unless the mechanism's trigger picks a candidate.  The trigger is
 * `AdaptiveInTransitRouting.choose_*` over the flat state, reading the
 * signals the mechanism declares; each pick is one
 * `draws.integers(routing.rng, 0, n)` (`bounded_draw`), exactly where the
 * object model's `select_output` draws. */

/* `RoutingDecision(output_port=port, vc=vc, ...)`: a tuple of the class
 * with the fields in order, as the class's `__new__` makes it. */
static PyObject *
new_decision(Core *c, PyObject *port, PyObject *vc, int nonminimal_global,
             int nonminimal_local, PyObject *intermediate, int must_misroute_global)
{
    PyTypeObject *type = (PyTypeObject *)L(c, RoutingDecision);
    PyObject *decision = type->tp_alloc(type, N_DECISION);
    if (decision == NULL)
        return NULL;
    PyTuple_SET_ITEM(decision, D_output_port, Py_NewRef(port));
    PyTuple_SET_ITEM(decision, D_vc, Py_NewRef(vc));
    PyTuple_SET_ITEM(decision, D_nonminimal_global,
                     Py_NewRef(nonminimal_global ? Py_True : Py_False));
    PyTuple_SET_ITEM(decision, D_nonminimal_local, Py_NewRef(nonminimal_local ? Py_True : Py_False));
    PyTuple_SET_ITEM(decision, D_set_intermediate_group, Py_NewRef(intermediate));
    PyTuple_SET_ITEM(decision, D_set_must_misroute_global,
                     Py_NewRef(must_misroute_global ? Py_True : Py_False));
    PyTuple_SET_ITEM(decision, D_set_fault_mode, Py_NewRef(Py_False));
    return decision;
}

/* `draws.integers(routing.rng, 0, n)` as an index into a list of `n`. */
static int
draw(Core *c, Py_ssize_t n, Py_ssize_t *index)
{
    PyObject *rng = get_attr(c->o[S_routing], s_rng), *n_o = NULL, *drawn = NULL;
    Py_ssize_t i = -1;
    if (rng != NULL && (n_o = PyLong_FromSsize_t(n)) != NULL
        && (drawn = bounded_draw(rng, zero, n_o)) != NULL)
        i = PyLong_AsSsize_t(drawn);
    Py_XDECREF(drawn);
    Py_XDECREF(n_o);
    Py_XDECREF(rng);
    if (i == -1 && PyErr_Occurred())
        return -1;
    c->draws++;
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    *index = i;
    return 0;
}

/* What a candidate's port is compared by (`ANY`: nothing, every candidate
 * qualifies). */
enum signal { ANY, COUNTER, OCCUPANCY, COMBINED };

/* A row's candidates in order: a list as it is, or a view `(shared, first,
 * dst group, proxy)` of a router's shared candidate tuple -- its global
 * ports with their target group before `num_global`, then its local ports --
 * skipping in place what `global_candidates` / `local_candidates` leave out:
 * the minimal port, a global port into the destination or the current group,
 * the local ports unless `proxy`.  `globals_only` skips the local candidates
 * too (ECtN's combined trigger). */
typedef struct {
    PyObject *seq;
    Py_ssize_t next, split, end;
    long minimal, dst_group, group;
    int view, globals_only;
} walk;

static int
walk_open(Core *c, walk *w, PyObject *candidates, long rid, long minimal, int globals_only)
{
    long first, proxy;
    w->globals_only = globals_only;
    w->next = w->split = 0;
    w->minimal = minimal;
    w->dst_group = w->group = 0;
    if (PyList_Check(candidates)) {
        w->seq = candidates;
        w->view = 0;
        w->end = PyList_GET_SIZE(candidates);
        return 0;
    }
    if (expect_tuple(candidates, 4, "a candidate view") < 0 || field_long(candidates, 1, &first) < 0
        || field_long(candidates, 2, &w->dst_group) < 0 || field_long(candidates, 3, &proxy) < 0)
        return -1;
    w->seq = PyTuple_GET_ITEM(candidates, 0);
    if (!PyTuple_Check(w->seq) || c->rpg <= 0) {
        PyErr_Format(PyExc_TypeError, "a candidate view must hold a candidate tuple, got %R",
                     w->seq);
        return -1;
    }
    w->view = 1;
    w->end = PyTuple_GET_SIZE(w->seq);
    w->split = c->num_global < w->end ? c->num_global : w->end;
    if (!proxy || globals_only)
        w->end = w->split;
    if (first > 0)
        w->next = first < w->end ? first : w->end;
    w->group = pydiv(rid, c->rpg);
    return 0;
}

/* The next candidate of `w` (borrowed) and its index in `w->seq`: 1, 0 at
 * the end, -1 on error. */
static int
walk_next(Core *c, walk *w, PyObject **candidate, Py_ssize_t *index)
{
    while (w->next < w->end) {
        Py_ssize_t i = w->next++;
        PyObject *found;
        long port, target;
        if (!w->view) {
            if (i >= PyList_GET_SIZE(w->seq))
                return 0;
            found = PyList_GET_ITEM(w->seq, i);
            if (w->globals_only) {
                if (field(found, 2) == NULL)
                    return -1;
                if (PyTuple_GET_ITEM(found, 1) != L(c, GLOBAL))
                    continue;
            }
        }
        else {
            found = PyTuple_GET_ITEM(w->seq, i);
            if (field_long(found, 0, &port) < 0)
                return -1;
            if (port == w->minimal)
                continue;
            if (i < w->split) {
                if (field_long(found, 2, &target) < 0)
                    return -1;
                if (target == w->dst_group || target == w->group)
                    continue;
            }
        }
        *candidate = found;
        *index = i;
        return 1;
    }
    return 0;
}

/* `preferred = [c for c in candidates if <signal of c.port> < limit]`, then
 * `preferred[draws.integers(rng, 0, len(preferred))]` unless it is empty: 1
 * with `*chosen` (a new reference), 0 for none, -1 on error.  The signal of
 * port `p` is `values[offset + p]` (a counter array, ECtN's combined array)
 * or the occupancy `out_committed + credit_occ` of port `offset + p`. */
static int
pick(Core *c, long rid, long minimal, PyObject *candidates, int globals_only,
     enum signal signal, PyObject *values, long offset, double limit, PyObject **chosen)
{
    Py_ssize_t stack[STACK_ITEMS], *kept = stack, num_kept = 0, index, drawn;
    PyObject *candidate;
    walk w;
    int found = -1, more;
    if (walk_open(c, &w, candidates, rid, minimal, globals_only) < 0)
        return -1;
    if (w.end > STACK_ITEMS && (kept = PyMem_Malloc((size_t)w.end * sizeof *kept)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    while ((more = walk_next(c, &w, &candidate, &index)) > 0) {
        long port, value, credit;
        if (signal != ANY) {
            if (field_long(candidate, 0, &port) < 0)
                goto done;
            if (signal == OCCUPANCY) {
                if (get_col(c, out_committed, offset + port, &value) < 0
                    || get_col(c, credit_occ, offset + port, &credit) < 0)
                    goto done;
                value += credit;
            }
            else if (get_long(values, offset + port, &value) < 0)
                goto done;
            if (!((double)value < limit))
                continue;
        }
        kept[num_kept++] = index;
    }
    if (more < 0)
        goto done;
    found = 0;
    if (num_kept > 0) {
        if (draw(c, num_kept, &drawn) < 0 || (candidate = at(w.seq, kept[drawn])) == NULL)
            found = -1;
        else {
            *chosen = Py_NewRef(candidate);
            found = 1;
        }
    }
done:
    if (kept != stack)
        PyMem_Free(kept);
    return found;
}

/* `out_committed[g] + credit_occ[g]`. */
static int
occupancy(Core *c, long g, long *out)
{
    long committed, credit;
    if (get_col(c, out_committed, g, &committed) < 0
        || get_col(c, credit_occ, g, &credit) < 0)
        return -1;
    *out = committed + credit;
    return 0;
}

/* The local trigger (and the in-transit global one) of the mechanism over
 * `candidates`, for a head of router `rid` whose minimal output is
 * `minimal`; `*counts` caches the router's counter array.  As `pick`. */
static int
choose(Core *c, long rid, long base, long minimal, PyObject *candidates, PyObject **counts,
       PyObject **chosen)
{
    long value;
    int found;
    if (!c->signals) {
        PyErr_SetString(PyExc_ValueError, "a gate row, but the mechanism has no trigger");
        return -1;
    }
    if (c->signals & READS_COUNTERS) {
        if (*counts == NULL) {
            PyObject *counters = item(L(c, counters), rid);
            if (counters == NULL || (*counts = get_attr(counters, s_counts)) == NULL
                || expect_list(*counts, "a counter array") < 0)
                return -1;
        }
        if (get_long(*counts, minimal, &value) < 0)
            return -1;
        if ((double)value > c->counter_threshold
            && (found = pick(c, rid, minimal, candidates, 0, COUNTER, *counts, 0,
                             c->counter_threshold, chosen)) != 0)
            return found;
    }
    if (!(c->signals & READS_OCCUPANCY))
        return 0;
    /* Relative occupancy, once the minimal output holds enough to compare
     * against. */
    if (occupancy(c, base + minimal, &value) < 0)
        return -1;
    if ((double)value < c->min_occupancy)
        return 0;
    return pick(c, rid, minimal, candidates, 0, OCCUPANCY, NULL, base,
                c->occupancy_ratio * (double)value, chosen);
}

/* The global trigger: the combined arrays over the global candidates first
 * where the row carries their injection-side constants `(group, minimal link
 * offset, port -> offset base)`, then `choose`. */
static int
choose_global(Core *c, long rid, long base, long minimal, PyObject *candidates, PyObject *ectn,
              PyObject **counts, PyObject **chosen)
{
    if (ectn != Py_None) {
        PyObject *combined;
        long min_offset, offset, load;
        int found;
        if (expect_tuple(ectn, 3, "ECtN's row constants") < 0
            || field_long(ectn, 1, &min_offset) < 0 || field_long(ectn, 2, &offset) < 0)
            return -1;
        if (!PyDict_Check(L(c, combined))) {
            PyErr_SetString(PyExc_TypeError, "ECtN's combined arrays must be a dict");
            return -1;
        }
        combined = PyDict_GetItemWithError(L(c, combined), PyTuple_GET_ITEM(ectn, 0));
        if (combined == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, PyTuple_GET_ITEM(ectn, 0));
            return -1;
        }
        if (expect_list(combined, "an ECtN combined array") < 0
            || get_long(combined, min_offset, &load) < 0)
            return -1;
        if ((double)load > c->combined_threshold) {
            Py_INCREF(combined); /* the draw may run Python */
            found = pick(c, rid, minimal, candidates, 1, COMBINED, combined, offset,
                         c->combined_threshold, chosen);
            Py_DECREF(combined);
            if (found != 0)
                return found;
        }
    }
    return choose(c, rid, base, minimal, candidates, counts, chosen);
}

/* One allocation round's request for a gate row (a new reference). */
static PyObject *
open_request(Core *c, long rid, long base, PyObject *row, PyObject **counts)
{
    PyObject *fallback, *candidates, *chosen = NULL, *port_o, *vc_o, *decision = NULL;
    PyObject *request = NULL;
    long kind, minimal, port, vc;
    int found;
    if (expect_tuple(row, 7, "a gate row") < 0 || field_long(row, 0, &kind) < 0
        || field_long(row, 2, &minimal) < 0)
        return NULL;
    fallback = PyTuple_GET_ITEM(row, 1);
    candidates = PyTuple_GET_ITEM(row, 3);
    if (kind == ROW_LOCAL)
        found = choose(c, rid, base, minimal, candidates, counts, &chosen);
    else {
        found = choose_global(c, rid, base, minimal, candidates, PyTuple_GET_ITEM(row, 6), counts,
                              &chosen);
        /* The committed proxy step leaves the group in any case. */
        if (found == 0 && kind == ROW_FORCED)
            found = pick(c, rid, minimal, candidates, 0, ANY, NULL, 0, 0.0, &chosen);
    }
    if (found <= 0)
        return found < 0 ? NULL : Py_NewRef(fallback);
    if ((port_o = field(chosen, 0)) == NULL || as_long(port_o, &port) < 0
        || field(chosen, 2) == NULL || expect_tuple(fallback, 7, "a request") < 0)
        goto done;
    if (kind == ROW_LOCAL) {
        vc_o = PyTuple_GET_ITEM(row, 5);
        decision = new_decision(c, port_o, vc_o, 0, 1, Py_None, 0);
    }
    else if (kind == ROW_FORCED || PyTuple_GET_ITEM(chosen, 1) == L(c, GLOBAL)) {
        /* Forced candidates are global links only (no local proxy). */
        vc_o = PyTuple_GET_ITEM(row, 4);
        decision = new_decision(c, port_o, vc_o, 1, 0, PyTuple_GET_ITEM(chosen, 2), 0);
    }
    else {
        vc_o = PyTuple_GET_ITEM(row, 5);
        decision = new_decision(c, port_o, vc_o, 0, 0, Py_None, 1);
    }
    if (decision != NULL && as_long(vc_o, &vc) == 0) {
        long og = base + port;
        request = steal_tuple(7, Py_NewRef(PyTuple_GET_ITEM(fallback, 0)),
                              Py_NewRef(PyTuple_GET_ITEM(fallback, 1)), Py_NewRef(port_o),
                              Py_NewRef(PyTuple_GET_ITEM(fallback, 3)), Py_NewRef(decision),
                              PyLong_FromLong(og), PyLong_FromLong(og * c->V + vc));
    }
done:
    Py_XDECREF(decision);
    Py_DECREF(chosen);
    return request;
}

/* --------------------------------------------------------------- injection */
/* `SoAEngine._inject`: a node's packet enters its router with the stock
 * `on_inject` of `RoutingAlgorithm`, `ValiantRouting` or `UGALRouting` (and
 * UGAL's / PB's source-adaptive trigger) answered here, under the rule of
 * the hooks.  `random_intermediate_router` draws: always by name. */

/* `RoutingAlgorithm.on_inject`: the packet records its source region. */
static int
source_region(Core *c, long rid, PyObject *packet)
{
    PyObject *region_o;
    long region;
    int failed;
    if (ask(c, Q_ROUTER_REGION, rid, &region) < 0 || (region_o = PyLong_FromLong(region)) == NULL)
        return -1;
    failed = pset(c, packet, F_source_group, region_o);
    Py_DECREF(region_o);
    return failed;
}

/* `topology.valiant_intermediate_router(rid, rng)`, stock: one draw over
 * the routers outside the source region. */
static PyObject *
valiant_router(Core *c, PyObject *topology, long rid, PyObject *rid_o, PyObject *rng)
{
    PyObject *args[3] = {topology, rid_o, rng}, *span, *drawn;
    long per_region, region, routers, choice;
    method m;
    if (resolve(topology, s_valiant_intermediate_router, &m) < 0)
        return NULL;
    if (!stock(&m, STOCK(c, Topology, valiant_intermediate_router)))
        return call_found(&m, args, 3, NULL);
    Py_CLEAR(m.fn);
    if (topology_count(c, topology, s_routers_per_region, S_DragonflyTopology_routers_per_region,
                       &per_region) < 0
        || ask_of(c, topology, Q_ROUTER_REGION, rid, &region) < 0
        || topology_count(c, topology, s_num_routers, S_DragonflyTopology_num_routers,
                          &routers) < 0
        || (span = PyLong_FromLong(routers - per_region)) == NULL)
        return NULL;
    drawn = draw_between(c, rng, zero, span);
    Py_DECREF(span);
    if (drawn == NULL || as_long(drawn, &choice) < 0) {
        Py_XDECREF(drawn);
        return NULL;
    }
    Py_DECREF(drawn);
    if (per_region <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return NULL;
    }
    /* `region, position = divmod(choice, rpr)`, skipping the source region */
    return PyLong_FromLong((pydiv(choice, per_region) + (pydiv(choice, per_region) >= region))
                               * per_region
                           + pymod(choice, per_region));
}

/* `self.random_intermediate_router(rid)` (a new reference): the stock
 * `ValiantRouting` method asks its topology's. */
static PyObject *
intermediate_router(Core *c, long rid)
{
    PyObject *routing = c->o[S_routing], *rid_o = PyLong_FromLong(rid), *via = NULL;
    PyObject *topology, *rng;
    method m;
    if (rid_o == NULL)
        return NULL;
    if (resolve(routing, s_random_intermediate_router, &m) == 0) {
        PyObject *args[2] = {routing, rid_o};
        if (!stock(&m, STOCK(c, ValiantRouting, random_intermediate_router)))
            via = call_found(&m, args, 2, NULL);
        else {
            Py_CLEAR(m.fn);
            if ((topology = get_attr(routing, s_topology)) != NULL) {
                if ((rng = get_attr(routing, s_rng)) != NULL) {
                    via = valiant_router(c, topology, rid, rid_o, rng);
                    Py_DECREF(rng);
                }
                Py_DECREF(topology);
            }
        }
    }
    Py_DECREF(rid_o);
    return via;
}

/* Call what `resolve` found with `args[1]` the view of router `rid`: the
 * truth of its answer, -1 on error. */
static int
truth_on_view(Core *c, method *m, long rid, PyObject **args, size_t nargs)
{
    PyObject *answer;
    int on;
    if ((args[1] = item(L(c, views), rid)) == NULL) {
        Py_CLEAR(m->fn);
        return -1;
    }
    if ((answer = call_found(m, args, nargs, NULL)) == NULL)
        return -1;
    on = truth(answer);
    Py_DECREF(answer);
    return on;
}

/* `self._ugal_prefers_valiant(router, packet, intermediate)`: the queue
 * comparison `q_min * len_min > q_val * len_val + T` at the source router. */
static int
ugal_prefers(Core *c, long rid, PyObject *packet, PyObject *intermediate)
{
    PyObject *routing = c->o[S_routing];
    long dst, dst_router, port, via, q_min, len_min, q_val, len_val, there, onward;
    method m;
    if (resolve(routing, s__ugal_prefers_valiant, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, UGALRouting, _ugal_prefers_valiant))) {
        PyObject *args[4] = {routing, NULL, packet, intermediate};
        return truth_on_view(c, &m, rid, args, 4);
    }
    Py_CLEAR(m.fn);
    if (pget_long(c, packet, F_dst, &dst) < 0 || ask(c, Q_NODE_ROUTER, dst, &dst_router) < 0
        || route(c, rid, dst, 0, &port) < 0 || occupancy(c, rid * c->P + port, &q_min) < 0
        || hops(c, rid, dst_router, &len_min) < 0 || as_long(intermediate, &via) < 0)
        return -1;
    len_min += 1;
    if (via == rid) {
        q_val = q_min;
        len_val = len_min;
    }
    else if (route(c, rid, via, 1, &port) < 0 || occupancy(c, rid * c->P + port, &q_val) < 0
             || hops(c, rid, via, &there) < 0 || hops(c, via, dst_router, &onward) < 0)
        return -1;
    else
        len_val = there + onward + 1;
    return (double)(q_min * len_min) > (double)(q_val * len_val) + c->valiant_threshold;
}

/* `self.prefers_valiant(router, packet, intermediate, cycle)`: 1 / 0, -1 on
 * error. */
static int
prefers_valiant(Core *c, long rid, PyObject *packet, PyObject *intermediate, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    if (resolve(routing, s_prefers_valiant, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, UGALRouting, prefers_valiant))) {
        Py_CLEAR(m.fn);
        return ugal_prefers(c, rid, packet, intermediate);
    }
    if (df_stock(c, &m, S_PiggybackRouting_prefers_valiant) && PyList_Check(L(c, flags))) {
        /* PB: the saturation flag of the minimal global link first. */
        PyObject *flags;
        long group, dst, dst_group, offset;
        int on;
        Py_CLEAR(m.fn);
        if (ask(c, Q_ROUTER_REGION, rid, &group) < 0 || pget_long(c, packet, F_dst, &dst) < 0
            || ask(c, Q_NODE_REGION, dst, &dst_group) < 0
            || get_long(L(c, link_offsets), group * c->df_groups + dst_group, &offset) < 0
            || (flags = item(L(c, flags), group)) == NULL || (flags = at(flags, offset)) == NULL
            || (on = truth(flags)) < 0)
            return -1;
        return on ? 1 : ugal_prefers(c, rid, packet, intermediate);
    }
    {
        PyObject *args[5] = {routing, NULL, packet, intermediate, cycle_o};
        return truth_on_view(c, &m, rid, args, 5);
    }
}

/* The rest of `ValiantRouting.on_inject`: the intermediate router. */
static int
valiant_inject(Core *c, long rid, PyObject *packet)
{
    PyObject *via = intermediate_router(c, rid);
    int failed;
    if (via == NULL)
        return -1;
    failed = pset(c, packet, F_valiant_router, via) < 0
             || pset(c, packet, F_phase, L(c, TO_INTERMEDIATE)) < 0;
    Py_DECREF(via);
    return failed ? -1 : 0;
}

/* `UGALRouting.on_inject`: minimal, unless the trigger prefers the Valiant
 * path through a drawn intermediate router. */
static int
ugal_inject(Core *c, long rid, PyObject *packet, PyObject *cycle_o)
{
    PyObject *via;
    long src_region, dst, dst_region;
    int on;
    if (source_region(c, rid, packet) < 0 || ask(c, Q_ROUTER_REGION, rid, &src_region) < 0
        || pget_long(c, packet, F_dst, &dst) < 0 || ask(c, Q_NODE_REGION, dst, &dst_region) < 0
        || pset(c, packet, F_phase, L(c, MINIMAL)) < 0
        || pset(c, packet, F_valiant_router, Py_None) < 0)
        return -1;
    if (dst_region == src_region)
        return 0;
    if ((via = intermediate_router(c, rid)) == NULL)
        return -1;
    if ((on = prefers_valiant(c, rid, packet, via, cycle_o)) > 0
        && (pset(c, packet, F_valiant_router, via) < 0
            || pset(c, packet, F_phase, L(c, TO_INTERMEDIATE)) < 0))
        on = -1;
    Py_DECREF(via);
    return on < 0 ? -1 : 0;
}

/* Whether `owner.<name>` is the stock function `function` (UGAL calls
 * `RoutingAlgorithm.on_inject` through the class): 1 / 0, -1 on error. */
static int
class_attr_is(PyObject *owner, PyObject *name, PyObject *function)
{
    PyObject *found = get_attr(owner, name);
    if (found == NULL)
        return -1;
    Py_DECREF(found);
    return found == function;
}

/* `routing.on_inject(view, packet, cycle)`. */
static int
inject_hook(Core *c, long rid, PyObject *packet, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing];
    method m;
    int on = 0;
    if (resolve(routing, s_on_inject, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, RoutingAlgorithm, on_inject))) {
        Py_CLEAR(m.fn);
        return source_region(c, rid, packet);
    }
    if (stock(&m, STOCK(c, ValiantRouting, on_inject))
        && (on = super_is(routing, L(c, ValiantRouting), s_on_inject,
                          STOCK(c, RoutingAlgorithm, on_inject))) > 0) {
        Py_CLEAR(m.fn);
        return source_region(c, rid, packet) < 0 ? -1 : valiant_inject(c, rid, packet);
    }
    if (on == 0 && stock(&m, STOCK(c, UGALRouting, on_inject))
        && (on = class_attr_is(L(c, RoutingAlgorithm), s_on_inject,
                               STOCK(c, RoutingAlgorithm, on_inject))) > 0) {
        Py_CLEAR(m.fn);
        return ugal_inject(c, rid, packet, cycle_o);
    }
    if (on < 0) {
        Py_CLEAR(m.fn);
        return -1;
    }
    {
        PyObject *args[4] = {routing, NULL, packet, cycle_o};
        return invoke_on_view(c, &m, rid, args, 4);
    }
}

/* `ComputeNode.try_inject` against the flat state: the head of the node's
 * source queue enters the first VC of its injection port, from the node's
 * round-robin pointer on, that has room for it -- `on_inject` before the
 * push, the arrival hook after it, both on the router's view -- or stays
 * queued. */
static int
inject(Core *c, PyObject *node, PyObject *cycle_o, long cycle)
{
    PyObject *queue, *packet = NULL, *port_o = NULL, *vc_o = NULL, *rid_o, *popped;
    long node_id, rid, port, g, num_vcs, pointer, size, offset, vc = 0, free_phits, injected;
    int failed = -1;
    if ((queue = get_attr(node, s_source_queue)) == NULL)
        return -1;
    if ((packet = PySequence_GetItem(queue, 0)) == NULL || attr_long(node, s_node_id, &node_id) < 0
        || (rid_o = at(L(c, node_rid), node_id)) == NULL || as_long(rid_o, &rid) < 0
        || (port_o = get_attr(node, s_port)) == NULL || as_long(port_o, &port) < 0
        || get_col(c, in_nvcs, rid * c->P + port, &num_vcs) < 0
        || attr_long(node, s__vc_pointer, &pointer) < 0
        || pget_long(c, packet, F_size_phits, &size) < 0)
        goto done;
    g = rid * c->P + port;
    for (offset = 0; offset < num_vcs; offset++) {
        vc = pymod(pointer + offset, num_vcs);
        if (get_col(c, in_free, g * c->V + vc, &free_phits) < 0)
            goto done;
        if (free_phits >= size)
            break;
    }
    if (offset >= num_vcs) {
        failed = 0;
        goto done;
    }
    {
        PyObject *args[1] = {queue};
        if ((popped = call_method(s_popleft, args, 1)) == NULL)
            goto done;
        Py_DECREF(popped);
    }
    if (pset(c, packet, F_injection_cycle, cycle_o) < 0 || inject_hook(c, rid, packet, cycle_o) < 0
        || push(c, rid, port, vc, packet, size, NULL) < 0)
        goto done;
    if (c->notify_arrival
        && ((vc_o = PyLong_FromLong(vc)) == NULL
            || arrival_hook(c, rid, port, port_o, vc_o, packet, cycle_o) < 0))
        goto done;
    if (set_attr_long(node, s__vc_pointer, pymod(vc + 1, num_vcs)) < 0
        || set_attr_long(node, s_next_injection_cycle, cycle + size) < 0
        || attr_long(node, s_injected_packets, &injected) < 0
        || set_attr_long(node, s_injected_packets, injected + 1) < 0)
        goto done;
    failed = 0;
done:
    Py_XDECREF(vc_o);
    Py_XDECREF(port_o);
    Py_XDECREF(packet);
    Py_DECREF(queue);
    return failed;
}

/* ---------------------------------------------------------------- captures */
/* A new head of an adaptive mechanism is classified once into its row by
 * the routing's path policy: the MM+L group policy (Dragonfly, flattened
 * butterfly) or the port-table policy (the torus's ring escape, the fat
 * tree's uplink multipath) -- the gate order of
 * `AdaptiveInTransitRouting.select_output` and its `_port_table_output`.
 * Only what cannot change while the packet waits at the head is read (packet
 * fields, topology, the routing's memoised candidate sets); a topology query
 * or a memo miss is the Python call the object path makes there. */

/* `routing.plain_decision(port, vc)`: the shared instance in
 * `_plain_decisions`, made by the method on a miss (a new reference). */
static PyObject *
plain_decision(Core *c, long port, long vc)
{
    PyObject *row, *decision, *port_o, *vc_o;
    if ((row = at(L(c, plain), port)) == NULL || (decision = at(row, vc)) == NULL)
        return NULL;
    if (decision != Py_None)
        return Py_NewRef(decision);
    decision = NULL;
    port_o = PyLong_FromLong(port);
    vc_o = PyLong_FromLong(vc);
    if (port_o != NULL && vc_o != NULL) {
        PyObject *args[3] = {c->o[S_routing], port_o, vc_o};
        decision = call_method(s_plain_decision, args, 3);
    }
    Py_XDECREF(vc_o);
    Py_XDECREF(port_o);
    return decision;
}

/* `routing.next_vc(head, GLOBAL / LOCAL)`: the path-stage VC. */
static int
next_vc(Core *c, PyObject *head, int global, long *vc)
{
    long hops, last = (global ? c->global_vcs : c->local_vcs) - 1;
    int in_group = 0;
    if (pget_long(c, head, F_global_hops, &hops) < 0
        || (!global && (in_group = ptruth(c, head, F_local_hops_in_group)) < 0))
        return -1;
    *vc = global ? hops : hops == 0 ? in_group : 2 * hops - 1 + in_group;
    if (*vc > last)
        *vc = last;
    return 0;
}

/* The request `(in port, in VC, out port, size, decision, out g, credit q)`
 * of `head` (buffer key `k`) for `decision`. */
static PyObject *
make_request(Core *c, long base_g, long k, PyObject *head, PyObject *decision)
{
    PyObject *port_o, *vc_o = NULL, *size_o = NULL, *request = NULL;
    long port, vc;
    if (Py_IS_TYPE(decision, (PyTypeObject *)L(c, RoutingDecision))) {
        port_o = Py_NewRef(PyTuple_GET_ITEM(decision, D_output_port));
        vc_o = Py_NewRef(PyTuple_GET_ITEM(decision, D_vc));
    }
    else if ((port_o = get_attr(decision, s_output_port)) != NULL)
        vc_o = get_attr(decision, s_vc);
    if (vc_o != NULL && as_long(port_o, &port) == 0 && as_long(vc_o, &vc) == 0
        && (size_o = pget(c, head, F_size_phits)) != NULL) {
        long og = base_g + port;
        request = steal_tuple(7, PyLong_FromLong(k / c->V), PyLong_FromLong(k % c->V),
                              Py_NewRef(port_o), Py_NewRef(size_o), Py_NewRef(decision),
                              PyLong_FromLong(og), PyLong_FromLong(og * c->V + vc));
    }
    Py_XDECREF(size_o);
    Py_XDECREF(vc_o);
    Py_XDECREF(port_o);
    return request;
}

/* `routing.global_candidates(rid, dst_group, minimal, proxy)` or, with
 * `local`, `routing.local_candidates(minimal)` (a new reference): while the
 * name resolves to the stock function, the view `(shared, first, dst_group,
 * proxy)` of the router's shared candidate tuple that `walk` filters in
 * place (`routing.router_candidates(rid)` builds the tuple on the router's
 * first use); else what the call by name returns, as a list. */
static PyObject *
candidates_of(Core *c, long rid, long dst_group, long minimal, int proxy, int local)
{
    PyObject *routing = c->o[S_routing], *found = NULL, *rid_o, *dst_o, *minimal_o;
    method m;
    if (resolve(routing, local ? s_local_candidates : s_global_candidates, &m) < 0)
        return NULL;
    if (PyList_Check(L(c, shared))
        && stock(&m, local ? STOCK(c, AdaptiveInTransitRouting, local_candidates)
                           : STOCK(c, AdaptiveInTransitRouting, global_candidates))) {
        PyObject *shared;
        Py_CLEAR(m.fn);
        if ((shared = item(L(c, shared), rid)) == NULL)
            return NULL;
        if (shared != Py_None)
            Py_INCREF(shared);
        else if ((rid_o = PyLong_FromLong(rid)) == NULL)
            return NULL;
        else {
            PyObject *args[2] = {routing, rid_o};
            shared = call_method(s_router_candidates, args, 2);
            Py_DECREF(rid_o);
        }
        if (shared != NULL && !PyTuple_Check(shared))
            Py_SETREF(shared, PySequence_Tuple(shared));
        if (shared == NULL)
            return NULL;
        return steal_tuple(4, shared, PyLong_FromLong(local ? c->num_global : 0L),
                           PyLong_FromLong(dst_group), PyLong_FromLong(proxy));
    }
    rid_o = PyLong_FromLong(rid);
    dst_o = PyLong_FromLong(dst_group);
    minimal_o = PyLong_FromLong(minimal);
    if (rid_o != NULL && dst_o != NULL && minimal_o != NULL) {
        PyObject *args[5] = {routing, rid_o, dst_o, minimal_o, proxy ? Py_True : Py_False};
        if (local)
            args[1] = minimal_o;
        found = call_found(&m, args, local ? 2 : 5, NULL);
    }
    else
        Py_CLEAR(m.fn);
    Py_XDECREF(minimal_o);
    Py_XDECREF(dst_o);
    Py_XDECREF(rid_o);
    if (found != NULL && !PyList_Check(found))
        Py_SETREF(found, PySequence_List(found));
    return found;
}

/* `topology.minimal_output_port(rid, dst)`, unless the head's contention
 * counter already holds it. */
static PyObject *
minimal_port(Core *c, PyObject *head, long rid, long dst)
{
    PyObject *minimal = pget(c, head, F_contention_port);
    long port;
    if (minimal == Py_None) {
        Py_DECREF(minimal);
        minimal = route(c, rid, dst, 0, &port) < 0 ? NULL : PyLong_FromLong(port);
    }
    return minimal;
}

/* `routing._towards_group(view, head, target)`: the step towards the
 * intermediate group from the gateway memo, or the method itself on a miss
 * (and where it falls back to `minimal_decision`). */
static PyObject *
towards_group(Core *c, long rid, PyObject *rid_o, PyObject *head, PyObject *target)
{
    PyObject *group_o = PyLong_FromLong(pydiv(rid, c->rpg)), *cached = NULL, *vc_o;
    PyObject *decision = NULL;
    long vc;
    int same = group_o == NULL ? -1 : PyObject_RichCompareBool(group_o, target, Py_EQ);
    Py_XDECREF(group_o);
    if (same < 0)
        return NULL;
    if (!same) {
        PyObject *key = PyTuple_Pack(2, rid_o, target);
        if (key == NULL)
            return NULL;
        cached = PyDict_GetItemWithError(L(c, towards_cache), key);
        Py_DECREF(key);
        if (cached == NULL && PyErr_Occurred())
            return NULL;
    }
    if (cached == NULL || cached == Py_None) {
        PyObject *view = item(L(c, views), rid);
        PyObject *args[4] = {c->o[S_routing], view, head, target};
        return view == NULL ? NULL : call_method(s__towards_group, args, 4);
    }
    Py_INCREF(cached);
    if (expect_tuple(cached, 2, "a region gateway") == 0
        && (same = truth(PyTuple_GET_ITEM(cached, 1))) >= 0 && next_vc(c, head, same, &vc) == 0
        && (vc_o = PyLong_FromLong(vc)) != NULL) {
        decision = new_decision(c, PyTuple_GET_ITEM(cached, 0), vc_o, same, 0, Py_None, 0);
        Py_DECREF(vc_o);
    }
    Py_DECREF(cached);
    return decision;
}

/* ECtN's `combined_view` of a head at `check_port` as `(group, minimal link's
 * offset, port base)` (see `choose_global`): `None` for a trigger without the
 * combined signal or a transit port. */
static PyObject *
capture_ectn(Core *c, long rid, long check_port, PyObject *head)
{
    PyObject *min_offset;
    long dst, group;
    int on;
    if (!(c->signals & READS_COMBINED))
        return Py_NewRef(Py_None);
    if ((on = port_is(c, S_kind_is_injection, check_port)) <= 0)
        return on < 0 ? NULL : Py_NewRef(Py_None);
    if (pget_long(c, head, F_dst, &dst) < 0)
        return NULL;
    group = pydiv(rid, c->rpg);
    if ((min_offset = link_offset(c, group, pydiv(dst, c->npg))) == NULL)
        return NULL;
    return steal_tuple(3, PyLong_FromLong(group), min_offset,
                       PyLong_FromLong(pymod(rid, c->rpg) * c->h - c->first_global));
}

/* A captured row: `(kind, request)`, or for a gate `(kind, request, minimal
 * port, candidates, global VC, local VC, ectn)`; NULL if `decision` is. */
static PyObject *
make_row(Core *c, long kind, long base_g, long k, PyObject *head, PyObject *decision,
         PyObject *minimal, PyObject *candidates, long global_vc, long local_vc, PyObject *ectn)
{
    PyObject *request = decision == NULL ? NULL : make_request(c, base_g, k, head, decision);
    PyObject *row = NULL;
    if (request != NULL)
        row = kind == ROW_FIXED
              ? steal_tuple(2, PyLong_FromLong(kind), Py_NewRef(request))
              : Py_BuildValue("(lOOOllO)", kind, request, minimal, candidates, global_vc,
                              local_vc, ectn);
    Py_XDECREF(request);
    return row;
}

/* The MM+L group policy.  One row per head suffices: the local-misroute gate
 * needs `current_group == dst_group or global_hops == 1` and the global
 * gates `dst_group != current_group and global_hops == 0`, so a head never
 * falls from a failed global gate into the local one -- only into the
 * minimal fallback, which every row carries. */
static PyObject *
capture_group(Core *c, long rid, PyObject *rid_o, long base_g, long k, PyObject *head)
{
    PyObject *decision = NULL, *minimal = NULL, *candidates = NULL, *ectn = NULL, *row = NULL;
    long kind = ROW_FIXED, dst, dst_router, current_group, dst_group, port, hops;
    long min_vc = 0, global_vc = 0, local_vc = 0;
    int on, global, injection;
    if (pget_long(c, head, F_dst, &dst) < 0)
        goto done;
    dst_router = pydiv(dst, c->npr);
    if (rid == dst_router) {
        decision = plain_decision(c, pymod(dst, c->npr), 0);
        goto row;
    }
    if ((on = pis(c, head, F_phase, L(c, TO_INTERMEDIATE))) < 0)
        goto done;
    if (on) {
        PyObject *target = pget(c, head, F_intermediate_group);
        if (target == NULL)
            goto done;
        if (target != Py_None)
            decision = towards_group(c, rid, rid_o, head, target);
        Py_DECREF(target);
        if (decision != NULL || PyErr_Occurred())
            goto row;
    }
    current_group = pydiv(rid, c->rpg);
    dst_group = pydiv(dst_router, c->rpg);
    if ((minimal = minimal_port(c, head, rid, dst)) == NULL || as_long(minimal, &port) < 0
        || (global = port_is(c, S_kind_is_global, port)) < 0
        || (injection = port_is(c, S_kind_is_injection, port)) < 0
        || ((global || !injection) && next_vc(c, head, global, &min_vc) < 0)
        || (decision = plain_decision(c, port, min_vc)) == NULL
        || pget_long(c, head, F_global_hops, &hops) < 0
        || (on = ptruth(c, head, F_must_misroute_global)) < 0)
        goto done;
    if (on && dst_group != current_group && hops == 0) {
        /* The committed local-proxy step.  Its trigger is asked with port 0,
         * an injection port on every topology with p >= 1. */
        long group;
        kind = ROW_FORCED;
        if (ask(c, Q_NODE_REGION, dst, &group) < 0
            || (candidates = candidates_of(c, rid, group, port, 0, 0)) == NULL
            || next_vc(c, head, 1, &global_vc) < 0
            || (ectn = capture_ectn(c, rid, 0, head)) == NULL)
            goto done;
        goto row;
    }
    if (dst_group != current_group && hops == 0) {
        if ((on = ptruth(c, head, F_globally_misrouted)) < 0)
            goto done;
        if (!on) {
            long path_hops;
            kind = ROW_GLOBAL;
            if (pget_long(c, head, F_hops, &path_hops) < 0
                || (candidates = candidates_of(c, rid, dst_group, port, path_hops == 0, 0)) == NULL
                || next_vc(c, head, 1, &global_vc) < 0 || next_vc(c, head, 0, &local_vc) < 0
                || (ectn = capture_ectn(c, rid, k / c->V, head)) == NULL)
                goto done;
            goto row;
        }
    }
    if (!global && !injection) {
        long in_group;
        if (pget_long(c, head, F_local_hops_in_group, &in_group) < 0)
            goto done;
        if (in_group == 0 && hops <= 1 && (current_group == dst_group || hops == 1)) {
            kind = ROW_LOCAL;
            if ((candidates = candidates_of(c, rid, dst_group, port, 1, 1)) == NULL
                || next_vc(c, head, 0, &local_vc) < 0)
                goto done;
        }
    }
row:
    row = make_row(c, kind, base_g, k, head, decision, minimal, candidates, global_vc, local_vc,
                   ectn == NULL ? Py_None : ectn);
done:
    Py_XDECREF(ectn);
    Py_XDECREF(candidates);
    Py_XDECREF(decision);
    Py_XDECREF(minimal);
    return row;
}

/* The VC of `head`'s hop through `port_o`: `topology.ring_vc(head, rid,
 * port)` by name on a dateline topology, where `_updown_vcs` is `None` (the
 * ring state it reads changes only in `on_grant` and at a Valiant
 * intermediate, never while the packet waits at a head); else the entry of
 * the up/down table. */
static int
port_vc(Core *c, PyObject *rid_o, PyObject *head, PyObject *port_o, long *vc)
{
    PyObject *vc_o;
    long port;
    int failed;
    if (L(c, updown_vcs) != Py_None)
        return as_long(port_o, &port) < 0 || (vc_o = at(L(c, updown_vcs), port)) == NULL
                   ? -1
                   : as_long(vc_o, vc);
    {
        PyObject *args[4] = {L(c, topology), head, rid_o, port_o};
        Py_INCREF(port_o); /* `ring_vc` runs Python */
        vc_o = call_method(s_ring_vc, args, 4);
        Py_DECREF(port_o);
    }
    if (vc_o == NULL)
        return -1;
    failed = as_long(vc_o, vc);
    Py_DECREF(vc_o);
    return failed;
}

/* The port-table policy (ring escape, uplink multipath): a non-empty
 * candidate list of the minimal port is a `LOCAL` row, its VC the first
 * candidate's (the routing checked at construction that sibling uplinks
 * share one; a ring has one escape); everything else is `FIXED`, and in the
 * middle of a ring traversal the row holds the committed direction. */
static PyObject *
capture_port_table(Core *c, long rid, PyObject *rid_o, long base_g, long k, PyObject *head)
{
    PyObject *decision = NULL, *minimal = NULL, *candidates = NULL, *home, *ring, *out;
    PyObject *row = NULL;
    long kind = ROW_FIXED, dst, home_rid, port, vc, local_vc = 0;
    int mid = 0;
    if (pget_long(c, head, F_dst, &dst) < 0
        || (home = at(L(c, node_rid), dst)) == NULL || as_long(home, &home_rid) < 0)
        goto done;
    if (rid == home_rid) {
        decision = plain_decision(c, pymod(dst, c->npr), 0);
        goto row;
    }
    if ((minimal = minimal_port(c, head, rid, dst)) == NULL || as_long(minimal, &port) < 0
        || (ring = at(L(c, ring_dims), port)) == NULL
        || (candidates = at(L(c, port_candidates), port)) == NULL
        || expect_list(candidates, "a candidate list") < 0)
        goto done;
    Py_INCREF(candidates);
    out = minimal;
    if (ring != Py_None) {
        long dim, direction, ring_dim, ring_dir;
        if (expect_tuple(ring, 2, "a ring") < 0 || field_long(ring, 0, &dim) < 0
            || field_long(ring, 1, &direction) < 0
            || pget_long(c, head, F_ring_dim, &ring_dim) < 0
            || pget_long(c, head, F_ring_dir, &ring_dir) < 0)
            goto done;
        /* Mid-traversal, committed the long way around: the escape port. */
        mid = ring_dim == dim && ring_dir != 0;
        if (mid && ring_dir != direction
            && ((out = item(candidates, 0)) == NULL || (out = field(out, 0)) == NULL))
            goto done;
    }
    /* With no candidate no trigger can fire or draw: `FIXED`. */
    if (!mid && PyList_GET_SIZE(candidates) > 0) {
        PyObject *first = field(PyList_GET_ITEM(candidates, 0), 0);
        kind = ROW_LOCAL;
        if (first == NULL || port_vc(c, rid_o, head, first, &local_vc) < 0)
            goto done;
    }
    if (port_vc(c, rid_o, head, out, &vc) < 0 || as_long(out, &port) < 0)
        goto done;
    decision = plain_decision(c, port, vc);
row:
    row = make_row(c, kind, base_g, k, head, decision, minimal, candidates, 0, local_vc, Py_None);
done:
    Py_XDECREF(decision);
    Py_XDECREF(candidates);
    Py_XDECREF(minimal);
    return row;
}

/* The pure capture (MIN / VAL / UGAL / PB): `decision_is_pure` plus the
 * head-constancy of every input (packet fields, topology) make the decision
 * a constant of the head -- one `select_output` per head lifetime, in a
 * `FIXED` row.  While the routing resolves the name to `MinimalRouting`'s
 * or `ValiantRouting`'s stock function (UGAL and PB inherit the latter) its
 * body runs here, `minimal_decision` and `hop_vc` inlined; on a dateline
 * topology, where `hop_vc` asks the ring state machine, and for anything
 * else the method is called by name. */

/* `minimal_decision(router, head)`: the minimal port and its path-stage or
 * up/down VC. */
static PyObject *
pure_minimal(Core *c, long rid, PyObject *head, long dst)
{
    long port, vc = 0;
    int global, injection;
    if (route(c, rid, dst, 0, &port) < 0)
        return NULL;
    if (L(c, updown_vcs) != Py_None) {
        PyObject *vc_o = at(L(c, updown_vcs), port);
        if (vc_o == NULL || as_long(vc_o, &vc) < 0)
            return NULL;
    }
    else if ((global = port_is(c, S_kind_is_global, port)) < 0
             || (injection = port_is(c, S_kind_is_injection, port)) < 0
             || ((global || !injection) && next_vc(c, head, global, &vc) < 0))
        return NULL;
    return plain_decision(c, port, vc);
}

/* `topology.port_target_region(rid, port)` of a global `port`: on a
 * Dragonfly whose `port_target_region` is stock, the group its link lands
 * in, from `_offset_to_group`. */
static int
target_region(Core *c, long rid, PyObject *rid_o, long port, PyObject *port_o, long *region)
{
    PyObject *args[3] = {L(c, topology), rid_o, port_o}, *row;
    method m;
    if (resolve(L(c, topology), s_port_target_region, &m) < 0)
        return -1;
    if (!df_stock(c, &m, S_DragonflyTopology_port_target_region))
        return found_long(&m, args, 3, region);
    Py_CLEAR(m.fn);
    if ((row = at(L(c, offset_to_group), pydiv(rid, c->df_a))) == NULL
        || (row = at(row, pymod(rid, c->df_a) * c->df_h + port - c->df_first_global)) == NULL)
        return -1;
    return as_long(row, region);
}

/* `ValiantRouting.select_output` past the ejection test: towards the
 * Valiant intermediate router while the packet has one, else minimal. */
static PyObject *
pure_valiant(Core *c, long rid, PyObject *rid_o, PyObject *head, long dst)
{
    PyObject *via, *port_o, *vc_o = NULL, *decision = NULL;
    long target, port, vc = 0, region;
    int on, global, injection, nonminimal = 0;
    if ((on = pis(c, head, F_phase, L(c, TO_INTERMEDIATE))) <= 0)
        return on < 0 ? NULL : pure_minimal(c, rid, head, dst);
    if ((via = pget(c, head, F_valiant_router)) == NULL)
        return NULL;
    if (via == Py_None) {
        Py_DECREF(via);
        return pure_minimal(c, rid, head, dst);
    }
    on = as_long(via, &target) < 0 || route(c, rid, target, 1, &port) < 0;
    Py_DECREF(via);
    if (on || (global = port_is(c, S_kind_is_global, port)) < 0
        || (port_o = PyLong_FromLong(port)) == NULL)
        return NULL;
    if (global) {
        /* A global hop into a region that is not the destination's is the
         * detour the metrics count. */
        if (target_region(c, rid, rid_o, port, port_o, &region) < 0
            || next_vc(c, head, 1, &vc) < 0)
            goto done;
        nonminimal = region != pydiv(dst, c->npreg);
    }
    else {
        /* Without global ports the detour is a local misroute wherever it
         * leaves the minimal path. */
        long minimal;
        if (!c->has_global_ports) {
            if (route(c, rid, dst, 0, &minimal) < 0)
                goto done;
            nonminimal = port != minimal;
        }
        if ((injection = port_is(c, S_kind_is_injection, port)) < 0)
            goto done;
        if (injection)
            vc = 0;
        else if (L(c, updown_vcs) != Py_None) {
            PyObject *table_vc = at(L(c, updown_vcs), port);
            if (table_vc == NULL || as_long(table_vc, &vc) < 0)
                goto done;
        }
        else if (next_vc(c, head, 0, &vc) < 0)
            goto done;
    }
    if ((vc_o = PyLong_FromLong(vc)) != NULL)
        decision = new_decision(c, port_o, vc_o, global && nonminimal, !global && nonminimal,
                                Py_None, 0);
done:
    Py_XDECREF(vc_o);
    Py_DECREF(port_o);
    return decision;
}

/* The stock body: ejection at the destination's router (for VAL only in the
 * minimal phase), else `pure_valiant` / `minimal_decision`. */
static PyObject *
pure_decision(Core *c, long rid, PyObject *rid_o, PyObject *head, int valiant)
{
    PyObject *home_o;
    long dst, home;
    int ejecting = 1;
    if (pget_long(c, head, F_dst, &dst) < 0
        || (valiant && (ejecting = pis(c, head, F_phase, L(c, MINIMAL))) < 0))
        return NULL;
    if (ejecting) {
        if ((home_o = at(L(c, node_rid), dst)) == NULL || as_long(home_o, &home) < 0)
            return NULL;
        if (rid == home)
            return plain_decision(c, pymod(dst, c->npr), 0);
    }
    return valiant ? pure_valiant(c, rid, rid_o, head, dst) : pure_minimal(c, rid, head, dst);
}

static PyObject *
capture_pure(Core *c, long rid, PyObject *rid_o, long base_g, long k, PyObject *head,
             PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *decision = NULL, *row;
    method m;
    int valiant = 0;
    if (resolve(routing, s_select_output, &m) < 0)
        return NULL;
    if (!c->dateline
        && (stock(&m, STOCK(c, MinimalRouting, select_output))
            || (valiant = stock(&m, STOCK(c, ValiantRouting, select_output))))) {
        Py_CLEAR(m.fn);
        decision = pure_decision(c, rid, rid_o, head, valiant);
    }
    else {
        PyObject *port_o = PyLong_FromLong(k / c->V), *vc_o = PyLong_FromLong(k % c->V);
        PyObject *args[6] = {routing, NULL, port_o, vc_o, head, cycle_o};
        if (port_o != NULL && vc_o != NULL && (args[1] = item(L(c, views), rid)) != NULL)
            decision = call_found(&m, args, 6, NULL);
        else
            Py_CLEAR(m.fn);
        Py_XDECREF(vc_o);
        Py_XDECREF(port_o);
    }
    if (decision == NULL)
        return NULL;
    row = decision == Py_None ? steal_tuple(2, PyLong_FromLong(ROW_FIXED), Py_NewRef(Py_None))
                              : make_row(c, ROW_FIXED, base_g, k, head, decision, NULL, NULL, 0,
                                         0, NULL);
    Py_DECREF(decision);
    return row;
}

/* --------------------------------------------------------------- allocate */
/* `Router.allocate`: report new heads, then the allocation rounds, each head
 * answering with the request of its captured row ("Row kinds" in
 * soa/engine.py). */

/* Capture the head of VC `q` (buffer key `k`) into `rows[q]`. */
static int
capture(Core *c, long rid, PyObject *rid_o, long q, long k, PyObject *head, PyObject *cycle_o)
{
    long base_g = rid * c->P;
    return set_item(c->o[S_rows], q,
                    c->capture == CAPTURE_PURE ? capture_pure(c, rid, rid_o, base_g, k, head,
                                                              cycle_o)
                    : c->capture == CAPTURE_GROUP ? capture_group(c, rid, rid_o, base_g, k, head)
                    : capture_port_table(c, rid, rid_o, base_g, k, head));
}

/* One new head, buffer key `k_o`: `on_packet_head` if the mechanism has one,
 * then its capture if the engine captures. */
static int
report_head(Core *c, long rid, PyObject *rid_o, PyObject *k_o, PyObject *cycle_o)
{
    long k, q;
    PyObject *seen, *dq, *head;
    int on, failed = 0;
    if (as_long(k_o, &k) < 0)
        return -1;
    q = rid * c->P * c->V + k;
    if ((seen = item(L(c, head_seen), q)) == NULL || (on = truth(seen)) < 0)
        return -1;
    if (on)
        return 0;
    if ((dq = item(L(c, in_q), q)) == NULL)
        return -1;
    /* Empty only under faults (a head dropped and its successor granted
     * within one cycle), where nothing is captured. */
    head = PyList_Check(dq) && PyList_GET_SIZE(dq) > 0 ? PyList_GET_ITEM(dq, 0) : Py_None;
    Py_INCREF(head);
    if (c->notify_head) {
        PyObject *port_o = PyLong_FromLong(k / c->V), *vc_o = PyLong_FromLong(k % c->V);
        failed = port_o == NULL || vc_o == NULL
                 || head_hook(c, rid, k / c->V, port_o, vc_o, head, cycle_o) < 0;
        Py_XDECREF(port_o);
        Py_XDECREF(vc_o);
    }
    if (!failed)
        failed = set_bool(L(c, head_seen), q, 1) < 0;
    if (!failed && c->capture >= 0)
        failed = capture(c, rid, rid_o, q, k, head, cycle_o) < 0;
    Py_DECREF(head);
    return failed ? -1 : 0;
}

/* `new_heads` is recorded unconditionally (the captures need every head);
 * the hook calls -- and only those -- stay gated, as in the object model. */
static int
report_new_heads(Core *c, long rid, PyObject *rid_o, PyObject *heads, PyObject *cycle_o)
{
    Py_ssize_t i;
    int failed = 0;
    if (PyList_GET_SIZE(heads) > 1 && PyList_Sort(heads) < 0)
        return -1;
    for (i = 0; !failed && i < PyList_GET_SIZE(heads); i++) {
        PyObject *k_o = Py_NewRef(PyList_GET_ITEM(heads, i));
        failed = report_head(c, rid, rid_o, k_o, cycle_o);
        Py_DECREF(k_o);
    }
    if (!failed)
        failed = PyList_SetSlice(heads, 0, PyList_GET_SIZE(heads), NULL);
    return failed ? -1 : 0;
}

/* One head's request for this round (a new reference; `None`: no request).
 * `*live` is set by a `LIVE` row: its evaluation may draw. */
static PyObject *
head_request(Core *c, PyObject *engine, long rid, PyObject *rid_o, long k, PyObject *cycle_o,
             long round_index, PyObject **counts, int *live)
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
        *live = 1;
        head = Py_NewRef(PyList_GET_ITEM(dq, 0));
        q_o = PyLong_FromLong(q);
        k_o = PyLong_FromLong(k);
        round_o = PyLong_FromLong(round_index);
        if (q_o != NULL && k_o != NULL && round_o != NULL) {
            PyObject *args[7] = {engine, rid_o, q_o, k_o, head, cycle_o, round_o};
            PyObject *decision = call_method(s__live_request, args, 7);
            if (decision != NULL) {
                req = decision == Py_None ? Py_NewRef(Py_None)
                                          : make_request(c, base_g, k, head, decision);
                Py_DECREF(decision);
            }
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
    {
        PyObject *req;
        Py_INCREF(row); /* the trigger's draw may run Python */
        req = open_request(c, rid, base_g, row, counts);
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
    PyObject *heads, *occupied, *counts = NULL;
    Py_ssize_t n, i, num_reqs = 0;
    long round_index, draws = c->draws;
    int any_granted = 0, live = 0, failed = -1;

    if ((heads = item(L(c, new_heads), rid)) == NULL
        || expect_list(heads, "st.new_heads[rid]") < 0)
        return -1;
    if (PyList_GET_SIZE(heads) > 0
        && report_new_heads(c, rid, rid_o, heads, cycle_o) < 0)
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
            req = head_request(c, engine, rid, rid_o, keys[i], cycle_o, round_index, &counts,
                               &live);
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
                || field_long(req, 6, &cq) < 0 || get_col(c, out_free, og, &have) < 0
                || (have >= size && get_col(c, credits, cq, &have) < 0))
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
                if (get_col(c, alloc_nvc, rid, &nvc) < 0)
                    goto done;
                if (nvc <= 0) {
                    PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
                    goto done;
                }
                if (set_col(c, in_ptr, base_g + req_in[0], pymod(req_vc[0] + 1, nvc)) < 0
                    || set_col(c, out_ptr, og, pymod(req_in[0] + 1, c->P)) < 0
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
    /* Grant-free and draw-free: every input of this evaluation is
     * router-local and invalidation-tracked, so skip until poked.  A `FIXED`
     * row or a closed gate never draws, and a `LIVE` evaluation always
     * counts as a draw. */
    if (!any_granted && !live && c->draws == draws && set_bool(L(c, alloc_clean), rid, 1) < 0)
        goto done;
    failed = 0;
done:
    while (num_reqs > 0)
        Py_DECREF(reqs[--num_reqs]);
    Py_XDECREF(counts);
    PyMem_Free(heap);
    return failed;
}

/* ------------------------------------------------------------- accounting */
/* The stock `MetricsCollector.record_delivery` and `record_generated`, and
 * what they call -- `in_window`, `TimeSeriesRecorder.record` -- each
 * answered here while its name resolves to the stock function, else called
 * by name.  The counters, the latency samples and the time-series bins are
 * the Python objects' own attributes. */

/* `metrics.in_window(cycle)`: 1 / 0, -1 on error. */
static int
in_window(Core *c, PyObject *metrics, PyObject *cycle_o)
{
    PyObject *bound;
    method m;
    int on;
    if (resolve(metrics, s_in_window, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, MetricsCollector, in_window))) {
        PyObject *args[2] = {metrics, cycle_o}, *answer = call_found(&m, args, 2, NULL);
        if (answer == NULL)
            return -1;
        on = truth(answer);
        Py_DECREF(answer);
        return on;
    }
    Py_CLEAR(m.fn);
    if ((bound = get_attr(metrics, s_measure_start)) == NULL)
        return -1;
    on = PyObject_RichCompareBool(cycle_o, bound, Py_LT);
    Py_DECREF(bound);
    if (on != 0)
        return on < 0 ? -1 : 0;
    if ((bound = get_attr(metrics, s_measure_end)) == NULL)
        return -1;
    on = bound == Py_None ? 1 : PyObject_RichCompareBool(cycle_o, bound, Py_LT);
    Py_DECREF(bound);
    return on;
}

/* `series.record(creation, latency, globally_misrouted=..., size_phits=...)`:
 * the packet joins the bin of its generation cycle. */
static int
record_bin(Core *c, PyObject *series, PyObject *creation_o, PyObject *latency, PyObject *misrouted,
           PyObject *size_o)
{
    PyObject *bins = NULL, *key = NULL, *point;
    long creation, start, end, size;
    method m;
    int failed = -1, on;
    if (resolve(series, s_record, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, TimeSeriesRecorder, record))) {
        PyObject *args[5] = {series, creation_o, latency, misrouted, size_o};
        return invoke(&m, args, 3, kw_bin);
    }
    Py_CLEAR(m.fn);
    if (as_long(creation_o, &creation) < 0 || attr_long(series, s_start_cycle, &start) < 0)
        return -1;
    if (creation < start)
        return 0;
    if ((point = get_attr(series, s_end_cycle)) == NULL)
        return -1;
    on = point == Py_None ? 0 : as_long(point, &end) < 0 ? -1 : creation >= end;
    Py_DECREF(point);
    if (on != 0)
        return on < 0 ? -1 : 0;
    if (attr_long(series, s_bin_size, &size) < 0
        || (bins = get_attr(series, s__bins)) == NULL)
        return -1;
    if (size <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        goto done;
    }
    if (!PyDict_Check(bins)) {
        PyErr_Format(PyExc_TypeError, "TimeSeriesRecorder._bins must be a dict, got %R", bins);
        goto done;
    }
    if ((key = PyLong_FromLong(pydiv(creation - start, size) * size + start)) == NULL)
        goto done;
    if ((point = PyDict_GetItemWithError(bins, key)) != NULL)
        Py_INCREF(point);
    else if (PyErr_Occurred()
             || (point = global_of(STOCK(c, TimeSeriesRecorder, record), s_TimeSeriesPoint)) == NULL
             || (point = PyObject_CallOneArg(point, key)) == NULL)
        goto done;
    else if (PyDict_SetItem(bins, key, point) < 0) {
        Py_DECREF(point);
        goto done;
    }
    failed = attr_iadd(point, s_count, one) < 0 || attr_iadd(point, s_latency_sum, latency) < 0
             || attr_iadd(point, s_delivered_phits, size_o) < 0
             || (on = truth(misrouted)) < 0 || (on && attr_iadd(point, s_misrouted, one) < 0)
             ? -1 : 0;
    Py_DECREF(point);
done:
    Py_XDECREF(key);
    Py_DECREF(bins);
    return failed;
}

/* `metrics.latency._samples.append(latency)`. */
static int
append_sample(PyObject *metrics, PyObject *latency)
{
    PyObject *stats = get_attr(metrics, s_latency), *samples;
    int failed;
    if (stats == NULL)
        return -1;
    samples = get_attr(stats, s__samples);
    Py_DECREF(stats);
    if (samples == NULL)
        return -1;
    {
        PyObject *args[2] = {samples, latency};
        failed = PyList_CheckExact(samples) ? PyList_Append(samples, latency)
                                            : call_void(s_append, args, 2);
    }
    Py_DECREF(samples);
    return failed;
}

/* `metrics.record_delivery(packet, cycle)`: the latency, negative an error;
 * the window's throughput counts; a window packet's latency sample, hops and
 * misroutes; its time-series bin. */
static int
record_delivery(Core *c, PyObject *metrics, PyObject *packet, PyObject *cycle_o)
{
    PyObject *delivered = NULL, *creation = NULL, *latency = NULL, *size_o = NULL;
    PyObject *value = NULL;
    method m;
    int failed = -1, on;
    if (resolve(metrics, s_record_delivery, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, MetricsCollector, record_delivery))) {
        PyObject *args[3] = {metrics, packet, cycle_o};
        return invoke(&m, args, 3, NULL);
    }
    Py_CLEAR(m.fn);
    if ((delivered = pget(c, packet, F_delivered_cycle)) == NULL
        || (creation = pget(c, packet, F_creation_cycle)) == NULL
        || (latency = PyNumber_Subtract(delivered, creation)) == NULL
        || (on = PyObject_RichCompareBool(latency, zero, Py_LT)) < 0)
        goto done;
    if (on) {
        PyErr_SetString(PyExc_ValueError, "latency cannot be negative");
        goto done;
    }
    if ((on = in_window(c, metrics, delivered)) < 0
        || (size_o = pget(c, packet, F_size_phits)) == NULL)
        goto done;
    if (on && (attr_iadd(metrics, s_delivered_packets, one) < 0
               || attr_iadd(metrics, s_delivered_phits, size_o) < 0
               || (on = ptruth(c, packet, F_fault_mode)) < 0
               || (on && attr_iadd(metrics, s_fault_rerouted_delivered, one) < 0)))
        goto done;
    if ((on = in_window(c, metrics, creation)) < 0)
        goto done;
    if (on && (append_sample(metrics, latency) < 0
               || (value = pget(c, packet, F_hops)) == NULL
               || attr_iadd(metrics, s_hops_sum, value) < 0
               || (on = ptruth(c, packet, F_globally_misrouted)) < 0
               || (on && attr_iadd(metrics, field_names[F_globally_misrouted], one) < 0)
               || (on = ptruth(c, packet, F_locally_misrouted)) < 0
               || (on && attr_iadd(metrics, field_names[F_locally_misrouted], one) < 0)))
        goto done;
    Py_CLEAR(value);
    if ((value = get_attr(metrics, s_timeseries)) == NULL)
        goto done;
    if (value != Py_None) {
        PyObject *misrouted = pget(c, packet, F_globally_misrouted);
        on = misrouted == NULL || record_bin(c, value, creation, latency, misrouted, size_o) < 0;
        Py_XDECREF(misrouted);
        if (on)
            goto done;
    }
    failed = 0;
done:
    Py_XDECREF(value);
    Py_XDECREF(size_o);
    Py_XDECREF(latency);
    Py_XDECREF(creation);
    Py_XDECREF(delivered);
    return failed;
}

/* `metrics.record_generated(packet)`. */
static int
record_generated(Core *c, PyObject *metrics, PyObject *packet)
{
    PyObject *creation;
    method m;
    int on;
    if (resolve(metrics, s_record_generated, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, MetricsCollector, record_generated))) {
        PyObject *args[2] = {metrics, packet};
        return invoke(&m, args, 2, NULL);
    }
    Py_CLEAR(m.fn);
    if ((creation = pget(c, packet, F_creation_cycle)) == NULL)
        return -1;
    on = in_window(c, metrics, creation);
    Py_DECREF(creation);
    return on <= 0 ? on : attr_iadd(metrics, s_generated_in_window, one);
}

/* ----------------------------------------------------------- router phase */
/* `for packet in packets: sink.<name>(packet, cycle)`; with the core `c`, a
 * delivery through `record_delivery` above. */
static int
report_packets(Core *c, PyObject *sink, PyObject *name, PyObject *packets, PyObject *cycle_o)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(packets); i++) {
        PyObject *packet = Py_NewRef(PyList_GET_ITEM(packets, i));
        PyObject *args[3] = {sink, packet, cycle_o};
        int failed = c != NULL && name == s_record_delivery
                     ? record_delivery(c, sink, packet, cycle_o) : call_void(name, args, 3);
        Py_DECREF(packet);
        if (failed)
            return -1;
    }
    return 0;
}

/* Report and empty the delivered (or dropped) list; returns how many packets
 * it held, -1 on error. */
static Py_ssize_t
drain(Core *c, PyObject *packets, PyObject *name, PyObject *metrics, PyObject *obs,
      PyObject *cycle_o)
{
    Py_ssize_t n = PyList_GET_SIZE(packets);
    if (n == 0)
        return 0;
    if ((metrics != Py_None && report_packets(c, metrics, name, packets, cycle_o) < 0)
        || (obs != Py_None && report_packets(NULL, obs, name, packets, cycle_o) < 0)
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
        PyObject *unsorted = get_attr(c->o[S_st], s_unsorted);
        if (unsorted == NULL)
            goto done;
        on = truth(unsorted);
        Py_DECREF(unsorted);
        if (on < 0
            || (on && (PyList_Sort(active) < 0
                       || set_attr(c->o[S_st], s_unsorted, Py_False) < 0)))
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
        if ((moved = drain(c, c->o[S_dlv], s_record_delivery, metrics, obs, cycle_o)) < 0)
            goto done;
        counts[0] += moved;
        if (faults != Py_None) {
            if ((moved = drain(c, c->o[S_drp], s_record_dropped, metrics, obs, cycle_o)) < 0)
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

/* ----------------------------------------------------------- source phase */
/* `Engine._source_phase`, phases 1 and 2 of a cycle: the traffic generated
 * now into the node source queues, then the injection walk over the sorted
 * backlogged nodes.  Under the rule of the hooks this answers the stock
 * `BernoulliTrafficGenerator.generate` over its pre-sampled arrival arrays
 * (`_ensure_block` by name when a new block is due), the stock destinations
 * of uniform, adversarial and transient traffic, each draw through
 * `draws.integers` as that module holds it, `Packet(...)` (its fields
 * written at their slots), `ComputeNode.enqueue`, `Network.activate_node`
 * and `MetricsCollector.record_generated`. */

/* `pattern._random_node_excluding(low, high, exclude, rng)` (a new
 * reference). */
static PyObject *
node_excluding(Core *c, PyObject *pattern, long low, long high, PyObject *exclude, PyObject *rng)
{
    PyObject *args[5] = {pattern, PyLong_FromLong(low), PyLong_FromLong(high), exclude, rng};
    PyObject *dst = NULL;
    long skip, drawn;
    method m;
    if (args[1] == NULL || args[2] == NULL || resolve(pattern, s__random_node_excluding, &m) < 0)
        goto done;
    if (!stock(&m, STOCK(c, TrafficPattern, _random_node_excluding))) {
        dst = call_found(&m, args, 5, NULL);
        goto done;
    }
    Py_CLEAR(m.fn);
    if (as_long(exclude, &skip) < 0)
        goto done;
    if (high - low <= 1) {
        if (low == skip)
            PyErr_SetString(PyExc_ValueError,
                            "cannot pick a destination different from the source");
        else
            dst = Py_NewRef(args[1]);
        goto done;
    }
    for (;;) {
        if ((dst = draw_between(c, rng, args[1], args[2])) == NULL)
            break;
        if (as_long(dst, &drawn) < 0 || drawn == skip)
            Py_CLEAR(dst);
        if (dst != NULL || PyErr_Occurred())
            break;
    }
done:
    Py_XDECREF(args[2]);
    Py_XDECREF(args[1]);
    return dst;
}

/* `topology.region_node_range(region)` as `*low, *high`. */
static int
region_range(Core *c, PyObject *topology, long region, long *low, long *high)
{
    PyObject *args[2] = {topology, NULL}, *answer, *pair;
    long routers, nodes;
    method m;
    int failed = -1;
    if (resolve(topology, s_region_node_range, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, Topology, region_node_range))) {
        Py_CLEAR(m.fn);
        if (topology_count(c, topology, s_routers_per_region,
                           S_DragonflyTopology_routers_per_region, &routers) < 0
            || topology_count(c, topology, s_nodes_per_router,
                              S_DragonflyTopology_nodes_per_router, &nodes) < 0)
            return -1;
        *low = region * routers * nodes;
        *high = *low + routers * nodes;
        return 0;
    }
    if ((args[1] = PyLong_FromLong(region)) == NULL) {
        Py_CLEAR(m.fn);
        return -1;
    }
    answer = call_found(&m, args, 2, NULL);
    Py_DECREF(args[1]);
    if (answer == NULL)
        return -1;
    if ((pair = PySequence_Fast(answer, "region_node_range must return a pair")) != NULL) {
        if (PySequence_Fast_GET_SIZE(pair) != 2)
            PyErr_SetString(PyExc_ValueError, "region_node_range must return a pair");
        else if (as_long(PySequence_Fast_GET_ITEM(pair, 0), low) == 0)
            failed = as_long(PySequence_Fast_GET_ITEM(pair, 1), high);
        Py_DECREF(pair);
    }
    Py_DECREF(answer);
    return failed;
}

/* `pattern.destination(src, cycle, rng)` (a new reference). */
static PyObject *
destination(Core *c, PyObject *pattern, PyObject *src_o, PyObject *cycle_o, PyObject *rng)
{
    PyObject *topology, *next, *dst = NULL;
    long src, low, high, region, offset, regions;
    method m;
    int uniform, on;
    if (resolve(pattern, s_destination, &m) < 0)
        return NULL;
    if (stock(&m, STOCK(c, TransientTraffic, destination))) {
        /* The pattern in effect at `cycle`. */
        Py_CLEAR(m.fn);
        if ((next = get_attr(pattern, s_switch_cycle)) == NULL)
            return NULL;
        on = PyObject_RichCompareBool(cycle_o, next, Py_LT);
        Py_DECREF(next);
        if (on < 0 || (next = get_attr(pattern, on ? s_before : s_after)) == NULL)
            return NULL;
        dst = destination(c, next, src_o, cycle_o, rng);
        Py_DECREF(next);
        return dst;
    }
    uniform = stock(&m, STOCK(c, UniformTraffic, destination));
    if (!uniform && !stock(&m, STOCK(c, AdversarialTraffic, destination))) {
        PyObject *args[4] = {pattern, src_o, cycle_o, rng};
        return call_found(&m, args, 4, NULL);
    }
    Py_CLEAR(m.fn);
    if (as_long(src_o, &src) < 0 || (topology = get_attr(pattern, s_topology)) == NULL)
        return NULL;
    if (uniform) {
        /* UN: any node but the source. */
        if (topology_count(c, topology, s_num_nodes, S_DragonflyTopology_num_nodes, &high) == 0)
            dst = node_excluding(c, pattern, 0, high, src_o, rng);
    }
    else {
        /* ADV+offset: any node of the region `offset` regions on. */
        if (ask_of(c, topology, Q_NODE_REGION, src, &region) == 0
            && attr_long(pattern, s_offset, &offset) == 0
            && topology_count(c, topology, s_num_regions, S_DragonflyTopology_num_regions,
                              &regions) == 0) {
            if (regions <= 0)
                PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
            else if (region_range(c, topology, pymod(region + offset, regions), &low, &high) == 0)
                dst = node_excluding(c, pattern, low, high, src_o, rng);
        }
    }
    Py_DECREF(topology);
    return dst;
}

/* `cls(pid=..., src=..., dst=..., size_phits=..., creation_cycle=...)`
 * (`fields` in that order): built here with every other field at its
 * default while `cls` is `Packet` with its stock `__init__`, else the
 * call. */
static PyObject *
new_packet(Core *c, PyObject *cls, PyObject **fields)
{
    static const int given[5] = {F_pid, F_src, F_dst, F_size_phits, F_creation_cycle};
    PyObject *packet, *init;
    Py_ssize_t i;
    int built_here = 0;
    if (c->defaults >= 0 && cls == L(c, Packet)) {
        if ((init = get_attr(cls, s___init__)) == NULL)
            return NULL;
        built_here = init == STOCK(c, Packet, __init__);
        Py_DECREF(init);
    }
    if (!built_here)
        return PyObject_Vectorcall(cls, fields, 0, kw_packet);
    if ((packet = c->packet_type->tp_alloc(c->packet_type, 0)) == NULL)
        return NULL;
    for (i = 0; i < 5; i++)
        *(PyObject **)((char *)packet + c->offset[given[i]]) = Py_NewRef(fields[i]);
    for (i = 0; i < c->defaults; i++)
        *(PyObject **)((char *)packet + c->default_offset[i])
            = Py_NewRef(PyTuple_GET_ITEM(L(c, packet_defaults), i));
    return packet;
}

/* One packet of `generate`: source `sources[ptr]`, id `pid`, its size and
 * creation cycle in `fields` already. */
static int
emit(Core *c, PyObject *cls, PyObject **fields, PyObject *sources, Py_ssize_t ptr, long pid,
     PyObject *pattern, PyObject *rng, PyObject *packets)
{
    PyObject *packet = NULL;
    int failed = -1;
    if ((fields[1] = item(sources, ptr)) == NULL)
        return -1;
    Py_INCREF(fields[1]);
    if ((fields[0] = PyLong_FromLong(pid)) != NULL
        && (fields[2] = destination(c, pattern, fields[1], fields[4], rng)) != NULL
        && (packet = new_packet(c, cls, fields)) != NULL)
        failed = PyList_Append(packets, packet);
    Py_XDECREF(packet);
    Py_CLEAR(fields[2]);
    Py_CLEAR(fields[1]);
    Py_CLEAR(fields[0]);
    return failed;
}

/* The stock `traffic.generate(cycle)`: the packets generated now, appended
 * to `packets` (a packet's `src` is its source node). */
static int
generate(Core *c, PyObject *traffic, PyObject *cycle_o, long cycle, PyObject *packets)
{
    PyObject *value, *cycles = NULL, *sources = NULL, *pattern = NULL, *rng = NULL, *cls = NULL;
    /* `Packet(...)`'s keyword values: pid, src, dst, size_phits, creation_cycle. */
    PyObject *fields[5] = {NULL, NULL, NULL, NULL, cycle_o};
    Py_ssize_t n, ptr;
    long block, index, event = 0, pid = 0, first_pid = 0;
    double probability;
    int failed = -1;
    if ((value = get_attr(traffic, s__packet_probability)) == NULL)
        return -1;
    probability = PyFloat_AsDouble(value);
    Py_DECREF(value);
    if (probability == -1.0 && PyErr_Occurred())
        return -1;
    if (probability <= 0.0)
        return 0;
    if (attr_long(traffic, s_block_cycles, &block) < 0
        || attr_long(traffic, s__block_index, &index) < 0)
        return -1;
    if (block <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return -1;
    }
    if (pydiv(cycle, block) > index) {
        PyObject *args[2] = {traffic, cycle_o};
        if (call_void(s__ensure_block, args, 2) < 0)
            return -1;
    }
    if ((cycles = get_attr(traffic, s__event_cycles)) == NULL
        || expect_list(cycles, "_event_cycles") < 0 || attr_long(traffic, s__ptr, &index) < 0)
        goto done;
    n = PyList_GET_SIZE(cycles);
    for (ptr = index; ptr < n; ptr++)
        if (get_long(cycles, ptr, &event) < 0)
            goto done;
        else if (event >= cycle)
            break;
    if (ptr < n && event == cycle) {
        if ((sources = get_attr(traffic, s__event_nodes)) == NULL
            || expect_list(sources, "_event_nodes") < 0
            || (pattern = get_attr(traffic, s_pattern)) == NULL
            || (rng = get_attr(traffic, s_rng)) == NULL
            || (fields[3] = get_attr(traffic, s_packet_size_phits)) == NULL
            || attr_long(traffic, s__next_pid, &first_pid) < 0)
            goto done;
        if ((cls = global_of(STOCK(c, BernoulliTrafficGenerator, generate), s_Packet)) == NULL)
            goto done;
        Py_INCREF(cls);
        for (pid = first_pid; ptr < n; ptr++, pid++)
            if (get_long(cycles, ptr, &event) < 0
                || (event == cycle
                    && emit(c, cls, fields, sources, ptr, pid, pattern, rng, packets) < 0))
                goto done;
            else if (event != cycle)
                break;
    }
    if (set_attr_long(traffic, s__ptr, ptr) < 0
        || set_attr(traffic, s__consumed_cycle, cycle_o) < 0)
        goto done;
    if (cls != NULL) {
        /* `self.generated_packets += pid - self._next_pid` */
        if (attr_long(traffic, s__next_pid, &first_pid) < 0
            || (value = PyLong_FromLong(pid - first_pid)) == NULL)
            goto done;
        failed = attr_iadd(traffic, s_generated_packets, value) < 0
                 || set_attr_long(traffic, s__next_pid, pid) < 0 ? -1 : 0;
        Py_DECREF(value);
        goto done;
    }
    failed = 0;
done:
    Py_XDECREF(cls);
    Py_XDECREF(fields[3]);
    Py_XDECREF(rng);
    Py_XDECREF(pattern);
    Py_XDECREF(sources);
    Py_XDECREF(cycles);
    return failed;
}

/* `network.activate_node(node)`. */
static int
activate_node(Core *c, PyObject *network, PyObject *node)
{
    PyObject *nodes, *args[2] = {network, node};
    method m;
    int on, failed;
    if (resolve(network, s_activate_node, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, Network, activate_node)))
        return invoke(&m, args, 2, NULL);
    Py_CLEAR(m.fn);
    if ((on = ptruth_attr(node, s_active)) != 0)
        return on < 0 ? -1 : 0;
    if (set_attr(node, s_active, Py_True) < 0
        || (nodes = get_attr(network, s__active_nodes)) == NULL)
        return -1;
    {
        PyObject *append[2] = {nodes, node};
        failed = PyList_CheckExact(nodes) ? PyList_Append(nodes, node)
                                          : call_void(s_append, append, 2);
    }
    Py_DECREF(nodes);
    return failed < 0 || set_attr(network, s__nodes_unsorted, Py_True) < 0 ? -1 : 0;
}

/* `node.enqueue(packet)`: the packet joins the node's source queue, made on
 * first use, and a newly backlogged node registers with its network. */
static int
enqueue(Core *c, PyObject *node, PyObject *packet)
{
    PyObject *queue, *size_o, *network;
    method m;
    int failed = -1, on;
    if (resolve(node, s_enqueue, &m) < 0)
        return -1;
    if (!stock(&m, STOCK(c, ComputeNode, enqueue))) {
        PyObject *args[2] = {node, packet};
        return invoke(&m, args, 2, NULL);
    }
    Py_CLEAR(m.fn);
    if ((queue = get_attr(node, s_source_queue)) == NULL)
        return -1;
    if (queue == Py_None) {
        PyObject *make = global_of(STOCK(c, ComputeNode, enqueue), s_deque);
        Py_SETREF(queue, make == NULL ? NULL : PyObject_CallNoArgs(make));
        if (queue == NULL || set_attr(node, s_source_queue, queue) < 0)
            goto done;
    }
    {
        PyObject *args[2] = {queue, packet};
        if (call_void(s_append, args, 2) < 0 || attr_iadd(node, s_generated_packets, one) < 0
            || (size_o = pget(c, packet, F_size_phits)) == NULL)
            goto done;
    }
    on = attr_iadd(node, s_generated_phits, size_o);
    Py_DECREF(size_o);
    if (on < 0 || (on = ptruth_attr(node, s_active)) < 0)
        goto done;
    if (!on) {
        PyObject *ref = get_attr(node, s__network);
        if (ref == NULL || (network = PyObject_CallNoArgs(ref)) == NULL) {
            Py_XDECREF(ref);
            goto done;
        }
        Py_DECREF(ref);
        on = network != Py_None && activate_node(c, network, node) < 0;
        Py_DECREF(network);
        if (on)
            goto done;
    }
    failed = 0;
done:
    Py_XDECREF(queue);
    return failed;
}

/* One generated packet at its source node: `nodes[src].enqueue(packet)`,
 * then `metrics.record_generated(packet)`. */
static int
admit(Core *c, PyObject *nodes, PyObject *src_o, PyObject *packet, PyObject *metrics)
{
    PyObject *node = PyObject_GetItem(nodes, src_o);
    int failed;
    if (node == NULL)
        return -1;
    failed = enqueue(c, node, packet) < 0
             || (metrics != Py_None && record_generated(c, metrics, packet) < 0);
    Py_DECREF(node);
    return failed ? -1 : 0;
}

/* Phase 1: the packets `traffic.generate(cycle)` makes, admitted in order. */
static int
generate_phase(Core *c, PyObject *traffic, PyObject *nodes, PyObject *metrics,
               PyObject *cycle_o, long cycle)
{
    PyObject *made, *iterator, *pair;
    method m;
    int failed = 0;
    if (resolve(traffic, s_generate, &m) < 0)
        return -1;
    if (stock(&m, STOCK(c, BernoulliTrafficGenerator, generate))) {
        Py_ssize_t i;
        Py_CLEAR(m.fn);
        if ((made = PyList_New(0)) == NULL)
            return -1;
        failed = generate(c, traffic, cycle_o, cycle, made);
        for (i = 0; !failed && i < PyList_GET_SIZE(made); i++) {
            PyObject *packet = PyList_GET_ITEM(made, i), *src_o = pget(c, packet, F_src);
            failed = src_o == NULL || admit(c, nodes, src_o, packet, metrics) < 0;
            Py_XDECREF(src_o);
        }
        Py_DECREF(made);
        return failed ? -1 : 0;
    }
    {
        PyObject *args[2] = {traffic, cycle_o};
        if ((made = call_found(&m, args, 2, NULL)) == NULL)
            return -1;
    }
    iterator = PyObject_GetIter(made);
    Py_DECREF(made);
    if (iterator == NULL)
        return -1;
    while (!failed && (pair = PyIter_Next(iterator)) != NULL) {
        PyObject *fast = PySequence_Fast(pair, "generate must yield (source, packet) pairs");
        failed = fast == NULL;
        if (!failed && PySequence_Fast_GET_SIZE(fast) != 2) {
            PyErr_SetString(PyExc_ValueError, "generate must yield (source, packet) pairs");
            failed = 1;
        }
        if (!failed)
            failed = admit(c, nodes, PySequence_Fast_GET_ITEM(fast, 0),
                           PySequence_Fast_GET_ITEM(fast, 1), metrics) < 0;
        Py_XDECREF(fast);
        Py_DECREF(pair);
    }
    Py_DECREF(iterator);
    return failed || PyErr_Occurred() ? -1 : 0;
}

static int
node_key(PyObject *node, long *key)
{
    return attr_long(node, s_node_id, key);
}

/* Phase 2: each backlogged node, in node-id order, injects when its spacing
 * allows; the nodes still backlogged stay registered, the earliest next
 * injection among them is `*hint`.  `inject_fn` is `engine._inject`,
 * `own` whether it is this core's `inject`. */
static int
inject_phase(Core *c, PyObject *network, PyObject *inject_fn, int own, PyObject *cycle_o,
             long cycle, long *hint)
{
    PyObject *active, *backlogged = NULL;
    Py_ssize_t i;
    long next;
    int failed = -1, on;
    *hint = c->no_event;
    if ((active = get_attr(network, s__active_nodes)) == NULL)
        return -1;
    if (expect_list(active, "network._active_nodes") < 0)
        goto done;
    if (PyList_GET_SIZE(active) == 0) {
        failed = 0;
        goto done;
    }
    if ((on = ptruth_attr(network, s__nodes_unsorted)) < 0 || (on && (sort_by(active, node_key) < 0
                          || set_attr(network, s__nodes_unsorted, Py_False) < 0))
        || (backlogged = PyList_New(0)) == NULL)
        goto done;
    /* The live list, as `for node in active_nodes` walks it. */
    for (i = 0; i < PyList_GET_SIZE(active); i++) {
        PyObject *node = Py_NewRef(PyList_GET_ITEM(active, i)), *queue = NULL;
        int bad = attr_long(node, s_next_injection_cycle, &next) < 0;
        if (!bad && cycle >= next) {
            if (own)
                bad = inject(c, node, cycle_o, cycle) < 0;
            else {
                PyObject *args[2] = {node, cycle_o};
                PyObject *result = PyObject_Vectorcall(inject_fn, args, 2, NULL);
                bad = result == NULL;
                Py_XDECREF(result);
            }
        }
        if (!bad && ((queue = get_attr(node, s_source_queue)) == NULL
                     || (on = truth(queue)) < 0))
            bad = 1;
        Py_XDECREF(queue);
        if (!bad) {
            if (on)
                bad = PyList_Append(backlogged, node) < 0
                      || attr_long(node, s_next_injection_cycle, &next) < 0;
            else
                bad = set_attr(node, s_active, Py_False) < 0;
            if (!bad && on && next < *hint)
                *hint = next;
        }
        Py_DECREF(node);
        if (bad)
            goto done;
    }
    failed = set_attr(network, s__active_nodes, backlogged);
done:
    Py_XDECREF(backlogged);
    Py_DECREF(active);
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
    c->packet_type = NULL; /* it is `o[S_Packet]` */
    for (i = 0; i < N_SLOTS; i++)
        Py_CLEAR(c->o[i]);
    for (i = 0; i < N_COLUMNS; i++)
        PyBuffer_Release(&c->column[i]); /* a no-op on one never taken */
    return 0;
}

static void
Core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    Core_clear(c);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

/* `owner.<name>` by the interned name.  The type attribute cache keeps a
 * reference to the name object a lookup passes, so a fresh string per lookup
 * (`PyObject_GetAttrString`) would be an allocation each new core leaves
 * behind; the interned one is the string the class's own dict already
 * holds. */
static PyObject *
named_attr(PyObject *owner, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name), *value;
    if (key == NULL)
        return NULL;
    value = PyObject_GetAttr(owner, key);
    Py_DECREF(key);
    return value;
}

/* `hasattr(owner, name)`, as `PyObject_HasAttrString` answers it. */
static int
has_named(PyObject *owner, const char *name)
{
    PyObject *value = named_attr(owner, name);
    if (value == NULL) {
        PyErr_Clear();
        return 0;
    }
    Py_DECREF(value);
    return 1;
}

/* `stock["packet_defaults"]`: `None`, or the names and then the defaults of
 * the `Packet` fields after the five `generate` passes, in field order.  A
 * packet is built here only if its fields are slots and every one of those
 * is a writable object slot too. */
static int
bind_defaults(Core *c)
{
    PyObject *layout = L(c, packet_defaults), *names, *defaults;
    Py_ssize_t i, n;
    c->defaults = -1;
    if (layout == Py_None || c->packet_type == NULL)
        return 0;
    if (expect_tuple(layout, 2, "stock['packet_defaults']") < 0)
        return -1;
    names = PyTuple_GET_ITEM(layout, 0);
    defaults = PyTuple_GET_ITEM(layout, 1);
    if (!PyTuple_Check(names) || !PyTuple_Check(defaults)
        || (n = PyTuple_GET_SIZE(names)) != PyTuple_GET_SIZE(defaults) || n > MAX_DEFAULTS) {
        PyErr_SetString(PyExc_ValueError, "stock['packet_defaults'] must be two tuples of "
                                          "one length, at most MAX_DEFAULTS");
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *descriptor = PyObject_GetAttr(L(c, Packet), PyTuple_GET_ITEM(names, i));
        PyMemberDef *member;
        if (descriptor == NULL)
            return -1;
        member = Py_IS_TYPE(descriptor, &PyMemberDescr_Type)
                 ? ((PyMemberDescrObject *)descriptor)->d_member : NULL;
        if (member != NULL && member->type == T_OBJECT_EX && !(member->flags & READONLY))
            c->default_offset[i] = member->offset;
        Py_DECREF(descriptor);
        if (member == NULL || member->type != T_OBJECT_EX || (member->flags & READONLY))
            return 0;
    }
    Py_SETREF(c->o[S_packet_defaults], Py_NewRef(defaults));
    c->defaults = n;
    return 0;
}

/* The stock functions, types and constants (see "stock" above). */
static int
bind_stock(Core *c, PyObject *stock)
{
    size_t i;
    for (i = 0; i < sizeof stock_entries / sizeof stock_entries[0]; i++) {
        PyObject *value = PyDict_GetItemString(stock, stock_entries[i].key);
        if (value == NULL) {
            PyErr_Format(PyExc_KeyError, "stock[%s] is missing", stock_entries[i].key);
            return -1;
        }
        c->o[stock_entries[i].slot] = Py_NewRef(value);
    }
    if (!PyType_Check(L(c, Packet)) || !PyType_Check(L(c, ECtNRouting))
        || !PyType_Check(L(c, RoutingAlgorithm)) || !PyType_Check(L(c, ValiantRouting))
        || !PyType_Check(L(c, DragonflyTopology)) || !PyType_Check(L(c, RoutingDecision))
        || !PyType_IsSubtype((PyTypeObject *)L(c, RoutingDecision), &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "stock: Packet, RoutingAlgorithm, ValiantRouting, "
                                         "ECtNRouting, DragonflyTopology and RoutingDecision "
                                         "must be classes, RoutingDecision a tuple");
        return -1;
    }
    {
        /* Decisions are read (and made) by field position. */
        PyObject *fields = named_attr(L(c, RoutingDecision), "_fields");
        PyObject *expected = Py_BuildValue("(sssssss)", DECISION_FIELDS(DECISION_NAME) NULL);
        int same = fields == NULL || expected == NULL
                   ? -1 : PyObject_RichCompareBool(fields, expected, Py_EQ);
        Py_XDECREF(fields);
        Py_XDECREF(expected);
        if (same <= 0) {
            if (same == 0)
                PyErr_SetString(PyExc_TypeError, "RoutingDecision's fields are not the ones "
                                                 "the core reads");
            return -1;
        }
    }
    /* `Packet`'s fields are read at their slot offsets only if every one is
     * a writable object slot; else every packet goes through getattr. */
    c->packet_type = (PyTypeObject *)L(c, Packet);
    for (i = 0; i < N_FIELDS; i++) {
        PyObject *descriptor = PyObject_GetAttr(L(c, Packet), field_names[i]);
        PyMemberDef *member;
        if (descriptor == NULL)
            return -1;
        member = Py_IS_TYPE(descriptor, &PyMemberDescr_Type)
                 ? ((PyMemberDescrObject *)descriptor)->d_member : NULL;
        if (member == NULL || member->type != T_OBJECT_EX || (member->flags & READONLY))
            c->packet_type = NULL;
        else
            c->offset[i] = member->offset;
        Py_DECREF(descriptor);
    }
    return bind_defaults(c) < 0 || as_long(L(c, NO_EVENT), &c->no_event) < 0 ? -1 : 0;
}

/* `float(owner.<name>)`: 1; with `optional`, 0.0 and 0 where `owner` has no
 * `name` or holds `None` there. */
static int
bind_double(PyObject *owner, const char *name, double *out, int optional)
{
    PyObject *value = named_attr(owner, name);
    *out = 0.0;
    if (value == NULL) {
        if (!optional || !PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    if (optional && value == Py_None) {
        Py_DECREF(value);
        return 0;
    }
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 1;
}

/* The signals the routing declares (`AdaptiveInTransitRouting`: a threshold
 * it lacks or holds as `None` is not read), their thresholds, and the
 * occupancy minimum. */
static int
bind_trigger(Core *c, PyObject *routing)
{
    static const char *names[] = {"contention_threshold", "congestion_threshold",
                                  "combined_threshold"}; /* READS_* order */
    double *thresholds[] = {&c->counter_threshold, &c->occupancy_ratio, &c->combined_threshold};
    int i, found;
    c->signals = 0;
    for (i = 0; i < 3; i++) {
        if ((found = bind_double(routing, names[i], thresholds[i], 1)) < 0)
            return -1;
        c->signals |= found << i;
    }
    if (bind_double(routing, "_min_occupancy", &c->min_occupancy, 1) < 0)
        return -1;
    if ((c->signals & READS_COUNTERS) && !PyList_Check(L(c, counters))) {
        PyErr_SetString(PyExc_TypeError, "a contention trigger without counter arrays");
        return -1;
    }
    return 0;
}

/* `bool(owner.<name>)`: 1 / 0, -1 on error. */
static int
bind_truth(PyObject *owner, const char *name)
{
    PyObject *value = named_attr(owner, name);
    int on;
    if (value == NULL)
        return -1;
    on = PyObject_IsTrue(value);
    Py_DECREF(value);
    return on;
}

/* `int(owner.<name>)`, which must be positive where it divides. */
static int
bind_long(PyObject *owner, const char *name, long *out, int divisor)
{
    PyObject *value = named_attr(owner, name);
    int failed;
    if (value == NULL)
        return -1;
    failed = as_long(value, out);
    Py_DECREF(value);
    if (!failed && divisor && *out <= 0) {
        PyErr_Format(PyExc_ValueError, "%s must be positive", name);
        return -1;
    }
    return failed;
}

/* `owner.<name>` into a slot, which must be a `type`; with `type` NULL,
 * whatever it is, or `None` where `owner` is `None` or has no `name`. */
static int
bind_attr(Core *c, int slot, PyObject *owner, const char *name, PyTypeObject *type)
{
    PyObject *value = owner == Py_None && type == NULL ? Py_NewRef(Py_None)
                                                        : named_attr(owner, name);
    if (value == NULL) {
        if (type != NULL || !PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        value = Py_NewRef(Py_None);
    }
    Py_XSETREF(c->o[slot], value);
    if (type != NULL && !PyObject_TypeCheck(value, type)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s, got %R", name, type->tp_name, value);
        return -1;
    }
    return 0;
}

/* What capture `capture` reads off the routing (see "captures"). */
static int
bind_capture(Core *c, PyObject *routing, int capture)
{
    c->capture = capture;
    if (capture == CAPTURE_PURE) {
        PyObject *dateline = named_attr(routing, "_dateline");
        if (dateline == NULL)
            return -1;
        c->dateline = dateline != Py_None;
        Py_DECREF(dateline);
        c->npreg = 1; /* MIN has no Valiant leg */
        c->has_global_ports = 1;
        if (has_named(routing, "_nodes_per_region")
            && (bind_long(routing, "_nodes_per_region", &c->npreg, 1) < 0
                || (c->has_global_ports = bind_truth(routing, "_has_global_ports")) < 0))
            return -1;
    }
    if (capture < CAPTURE_PURE)
        return 0;
    if (bind_long(routing, "_nodes_per_router", &c->npr, 1) < 0
        || bind_long(routing, "_global_vcs", &c->global_vcs, 0) < 0
        || bind_long(routing, "_local_vcs", &c->local_vcs, 0) < 0
        || bind_attr(c, S_plain, routing, "_plain_decisions", &PyList_Type) < 0
        || bind_attr(c, S_updown_vcs, routing, "_updown_vcs", NULL) < 0)
        return -1;
    if (capture == CAPTURE_PURE)
        return 0;
    if (!c->signals) {
        PyErr_SetString(PyExc_ValueError, "an adaptive capture needs a trigger");
        return -1;
    }
    if (capture == CAPTURE_PORT_TABLE)
        return bind_attr(c, S_ring_dims, routing, "_port_ring_dim", &PyList_Type) < 0
               || bind_attr(c, S_port_candidates, routing, "_port_candidates", &PyList_Type) < 0
               ? -1 : 0;
    if (bind_long(routing, "_routers_per_group", &c->rpg, 1) < 0
        || bind_long(routing, "_nodes_per_group", &c->npg, 1) < 0
        || bind_long(routing, "_num_global_ports", &c->num_global, 0) < 0
        || bind_attr(c, S_shared, routing, "_router_candidates", &PyList_Type) < 0
        || bind_attr(c, S_towards_cache, routing, "_towards_cache", &PyDict_Type) < 0)
        return -1;
    if (!(c->signals & READS_COMBINED))
        return 0;
    if (c->df_a <= 0) {
        PyErr_SetString(PyExc_TypeError, "the combined signal reads a Dragonfly's link offsets");
        return -1;
    }
    return bind_long(routing, "_h", &c->h, 0) < 0
           || bind_long(routing, "_first_global_port", &c->first_global, 0) < 0 ? -1 : 0;
}

/* The constants and tables of a `DragonflyTopology` its stock queries read;
 * on any other topology `df_a` stays 0 and the tables `None`. */
static int
bind_dragonfly(Core *c, PyObject *topology)
{
    int is = PyObject_IsInstance(topology, L(c, DragonflyTopology));
    c->df_p = c->df_a = c->df_h = c->df_groups = c->df_routers = 0;
    if (is < 0)
        return -1;
    if (!is)
        return bind_attr(c, S_route_table, Py_None, "_route_table", NULL) < 0
               || bind_attr(c, S_link_offsets, Py_None, "group_link_offsets", NULL) < 0
               || bind_attr(c, S_offset_to_group, Py_None, "_offset_to_group", NULL) < 0 ? -1 : 0;
    /* `df_a` last: it says the rest is bound. */
    return bind_long(topology, "_p", &c->df_p, 1) < 0 || bind_long(topology, "_h", &c->df_h, 1) < 0
           || bind_long(topology, "_num_groups", &c->df_groups, 1) < 0
           || bind_long(topology, "_num_routers", &c->df_routers, 1) < 0
           || bind_long(topology, "_first_global_port", &c->df_first_global, 0) < 0
           || bind_attr(c, S_route_table, topology, "_route_table", &PyByteArray_Type) < 0
           || bind_attr(c, S_link_offsets, topology, "group_link_offsets", &PyList_Type) < 0
           || bind_attr(c, S_offset_to_group, topology, "_offset_to_group", &PyList_Type) < 0
           || bind_long(topology, "_a", &c->df_a, 1) < 0 ? -1 : 0;
}

/* `st.<column_names[i]>` through a writable buffer, which must hold C
 * `long long`s (an `array('q')`); anything else is a `TypeError`. */
static int
bind_column(Core *c, PyObject *st, int i)
{
    PyObject *column = named_attr(st, column_names[i]);
    Py_buffer *view = &c->column[i];
    int taken;
    if (column == NULL)
        return -1;
    taken = PyObject_GetBuffer(column, view, PyBUF_WRITABLE | PyBUF_FORMAT) == 0;
    if (!taken && !PyErr_ExceptionMatches(PyExc_TypeError)
        && !PyErr_ExceptionMatches(PyExc_BufferError)) {
        Py_DECREF(column);
        return -1;
    }
    if (!taken || view->itemsize != (Py_ssize_t)sizeof(long long) || view->format == NULL
        || strcmp(view->format, "q") != 0) {
        if (taken)
            PyBuffer_Release(view);
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "st.%s must be an array('q'), got %R", column_names[i],
                     column);
        Py_DECREF(column);
        return -1;
    }
    Py_DECREF(column); /* the buffer holds it */
    return 0;
}

static int
bind(Core *c, PyObject *args, PyObject *kwargs)
{
    PyObject *st, *routing, *rows, *drp, *stock, *size;
    int i, arrival, head, leave, capture;
    long speedup, latency;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError, "Core() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "OOO!O!(ppp)lliO!:Core", &st, &routing, &PyList_Type, &rows,
                          &PyList_Type, &drp, &arrival, &head, &leave, &speedup, &latency,
                          &capture, &PyDict_Type, &stock))
        return -1;
    Core_clear(c);
    for (i = 0; i < N_STATE; i++) {
        PyObject *member = named_attr(st, state_members[i].name);
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
    for (i = 0; i < N_COLUMNS; i++)
        if (bind_column(c, st, i) < 0)
            return -1;
    c->o[S_st] = Py_NewRef(st);
    c->o[S_routing] = Py_NewRef(routing);
    c->o[S_rows] = Py_NewRef(rows);
    /* Packets a release delivered, until the walk has reported them. */
    if ((c->o[S_dlv] = PyList_New(0)) == NULL)
        return -1;
    c->o[S_drp] = Py_NewRef(drp);
    if (bind_stock(c, stock) < 0
        || bind_attr(c, S_topology, routing, "topology", &PyBaseObject_Type) < 0
        || bind_attr(c, S_tracker, routing, "tracker", NULL) < 0
        || bind_attr(c, S_counters, L(c, tracker), "_counters", NULL) < 0
        || bind_attr(c, S_partial, routing, "partial", NULL) < 0
        || bind_attr(c, S_combined, routing, "combined", NULL) < 0
        || bind_attr(c, S_flags, routing, "_flags", NULL) < 0
        || bind_attr(c, S_shared, routing, "_router_candidates", NULL) < 0
        || bind_attr(c, S_node_rid, routing, "_node_rid", &PyTuple_Type) < 0
        || bind_double(routing, "_valiant_threshold", &c->valiant_threshold, 1) < 0
        || bind_dragonfly(c, L(c, topology)) < 0)
        return -1;
    for (i = 0; i < 2; i++) {
        if ((size = named_attr(st, i ? "V" : "P")) == NULL)
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
    if (bind_trigger(c, routing) < 0 || bind_capture(c, routing, capture) < 0)
        return -1;
    c->draws = 0;
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
Core_inject(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    long cycle;
    if (!usable(c))
        return NULL;
    if (nargs != 2 || !PyLong_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "inject(node, cycle) takes a node and an int cycle");
        return NULL;
    }
    if (as_long(args[1], &cycle) < 0 || inject(c, args[0], args[1], cycle) < 0)
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

/* `engine._draws += <the triggers' draws since the last call>` (the
 * `LIVE` rows' evaluations count themselves, in Python). */
static int
add_draws(Core *c, PyObject *engine)
{
    PyObject *draws, *more, *sum = NULL;
    int failed;
    if (c->draws == 0)
        return 0;
    if ((draws = get_attr(engine, s__draws)) == NULL)
        return -1;
    if ((more = PyLong_FromLong(c->draws)) != NULL)
        sum = PyNumber_Add(draws, more);
    failed = sum == NULL || set_attr(engine, s__draws, sum) < 0;
    Py_XDECREF(sum);
    Py_XDECREF(more);
    Py_DECREF(draws);
    if (!failed)
        c->draws = 0;
    return failed ? -1 : 0;
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
    if ((metrics = get_attr(engine, s_metrics)) != NULL
        && (obs = get_attr(engine, s_obs)) != NULL
        && (faults = get_attr(engine, s_faults)) != NULL
        && (active = get_attr(c->o[S_st], s_active)) != NULL
        && expect_list(active, "st.active") == 0
        && router_phase(c, engine, cycle_o, cycle, metrics, obs, faults, active, counts) == 0
        && add_draws(c, engine) == 0)
        result = Py_BuildValue("(nnn)", counts[0], counts[1], counts[2]);
    Py_XDECREF(active);
    Py_XDECREF(faults);
    Py_XDECREF(obs);
    Py_XDECREF(metrics);
    return result;
}

/* `Engine._source_phase(cycle)`: traffic generation and injection; the
 * earliest pending node injection. */
static PyObject *
Core_source_phase(Core *c, PyObject *args)
{
    PyObject *engine, *cycle_o, *traffic = NULL, *network = NULL, *metrics = NULL;
    PyObject *nodes = NULL, *inject_fn = NULL, *result = NULL;
    long cycle, hint;
    int own;
    if (!usable(c) || !PyArg_ParseTuple(args, "OO!:source_phase", &engine, &PyLong_Type,
                                        &cycle_o)
        || as_long(cycle_o, &cycle) < 0)
        return NULL;
    if ((traffic = get_attr(engine, s_traffic)) == NULL
        || (network = get_attr(engine, s_network)) == NULL
        || (metrics = get_attr(engine, s_metrics)) == NULL
        || (nodes = get_attr(network, s_nodes)) == NULL
        || generate_phase(c, traffic, nodes, metrics, cycle_o, cycle) < 0
        || (inject_fn = get_attr(engine, s__inject)) == NULL)
        goto done;
    own = PyCFunction_Check(inject_fn) && PyCFunction_GET_SELF(inject_fn) == (PyObject *)c
          && PyCFunction_GET_FUNCTION(inject_fn) == (PyCFunction)(void (*)(void))Core_inject;
    if (inject_phase(c, network, inject_fn, own, cycle_o, cycle, &hint) == 0)
        result = PyLong_FromLong(hint);
done:
    Py_XDECREF(inject_fn);
    Py_XDECREF(nodes);
    Py_XDECREF(metrics);
    Py_XDECREF(network);
    Py_XDECREF(traffic);
    return result;
}

/* `PiggybackRouting.publish_flags(cycle, scanned)`, stock: this cycle's
 * scan joins the notification queue, and the flags now due are delivered. */
static int
publish_flags(Core *c, PyObject *cycle_o, PyObject *scanned)
{
    PyObject *routing = c->o[S_routing], *pending, *delay, *due = NULL, *entry, *table = NULL;
    PyObject *saturated = NULL;
    Py_ssize_t group;
    int failed = -1, on;
    if ((pending = get_attr(routing, s__pending)) == NULL)
        return -1;
    if ((delay = get_attr(routing, s_notification_delay)) == NULL
        || (due = PyNumber_Add(cycle_o, delay)) == NULL)
        goto done;
    for (group = 0; group < PyList_GET_SIZE(scanned); group++) {
        PyObject *args[2] = {pending, NULL};
        if ((args[1] = steal_tuple(3, Py_NewRef(due), PyLong_FromSsize_t(group),
                                   Py_NewRef(PyList_GET_ITEM(scanned, group)))) == NULL)
            goto done;
        on = call_void(s_append, args, 2);
        Py_DECREF(args[1]);
        if (on < 0)
            goto done;
    }
    if ((table = get_attr(routing, s__flags)) == NULL
        || (saturated = get_attr(routing, s__saturated_groups)) == NULL)
        goto done;
    while ((on = PyObject_IsTrue(pending)) > 0) {
        PyObject *first = PySequence_GetItem(pending, 0), *when, *flags;
        Py_ssize_t i;
        int any = 0;
        if (first == NULL || (when = PySequence_GetItem(first, 0)) == NULL) {
            Py_XDECREF(first);
            goto done;
        }
        Py_DECREF(first);
        on = PyObject_RichCompareBool(when, cycle_o, Py_LE);
        Py_DECREF(when);
        if (on <= 0)
            break;
        if ((entry = call_method(s_popleft, &pending, 1)) == NULL)
            goto done;
        if (expect_tuple(entry, 3, "a pending flag update") < 0
            || PyObject_SetItem(table, PyTuple_GET_ITEM(entry, 1), PyTuple_GET_ITEM(entry, 2)) < 0
            || expect_list(flags = PyTuple_GET_ITEM(entry, 2), "a flag list") < 0) {
            Py_DECREF(entry);
            goto done;
        }
        for (i = 0; !any && i < PyList_GET_SIZE(flags); i++)
            if ((any = truth(PyList_GET_ITEM(flags, i))) < 0)
                break;
        if (any >= 0) {
            PyObject *args[2] = {saturated, PyTuple_GET_ITEM(entry, 1)};
            any = call_void(any ? s_add : s_discard, args, 2);
        }
        Py_DECREF(entry);
        if (any < 0)
            goto done;
    }
    failed = on < 0 ? -1 : 0;
done:
    Py_XDECREF(saturated);
    Py_XDECREF(table);
    Py_XDECREF(due);
    Py_XDECREF(delay);
    Py_DECREF(pending);
    return failed;
}

/* `PiggybackRouting.post_cycle(network, cycle)` over the flat state, with
 * `scan` bound first: per group, the flags `out_committed[g] +
 * credit_occ[g] >= limit` of its scan slots `(g, limit)`, handed to
 * `routing.publish_flags(cycle, scanned)`. */
static PyObject *
Core_publish_saturation(Core *c, PyObject *args)
{
    PyObject *scan, *network, *cycle_o, *scanned;
    Py_ssize_t i, j;
    method m;
    int failed;
    if (!usable(c) || !PyArg_ParseTuple(args, "O!OO!:publish_saturation", &PyList_Type, &scan,
                                        &network, &PyLong_Type, &cycle_o)
        || (scanned = PyList_New(PyList_GET_SIZE(scan))) == NULL)
        return NULL;
    for (i = 0; i < PyList_GET_SIZE(scanned); i++) {
        PyObject *slots = PyList_GET_ITEM(scan, i), *flags;
        if (expect_list(slots, "a scan row") < 0
            || (flags = PyList_New(PyList_GET_SIZE(slots))) == NULL)
            goto error;
        PyList_SET_ITEM(scanned, i, flags);
        for (j = 0; j < PyList_GET_SIZE(flags); j++) {
            PyObject *slot = PyList_GET_ITEM(slots, j);
            long g, committed, occupied;
            double limit;
            if (expect_tuple(slot, 2, "a scan slot") < 0 || field_long(slot, 0, &g) < 0
                || ((limit = PyFloat_AsDouble(PyTuple_GET_ITEM(slot, 1))) == -1.0
                    && PyErr_Occurred())
                || get_col(c, out_committed, g, &committed) < 0
                || get_col(c, credit_occ, g, &occupied) < 0)
                goto error;
            PyList_SET_ITEM(flags, j, Py_NewRef((double)(committed + occupied) >= limit
                                                ? Py_True : Py_False));
        }
    }
    if (resolve(c->o[S_routing], s_publish_flags, &m) < 0)
        goto error;
    if (stock(&m, STOCK(c, PiggybackRouting, publish_flags))) {
        Py_CLEAR(m.fn);
        failed = publish_flags(c, cycle_o, scanned);
    }
    else {
        PyObject *call[3] = {c->o[S_routing], cycle_o, scanned};
        failed = invoke(&m, call, 3, NULL);
    }
    Py_DECREF(scanned);
    if (failed < 0)
        return NULL;
    Py_RETURN_NONE;
error:
    Py_DECREF(scanned);
    return NULL;
}

static PyMethodDef Core_methods[] = {
    {"inject", (PyCFunction)(void (*)(void))Core_inject, METH_FASTCALL,
     "inject(node, cycle): the head of `node`'s source queue into its router if a VC has room "
     "(`SoAEngine._inject`)."},
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
    {"publish_saturation", (PyCFunction)Core_publish_saturation, METH_VARARGS,
     "publish_saturation(scan, network, cycle): PB's `post_cycle`, its saturation scan over "
     "the flat state, then `routing.publish_flags(cycle, flags)`."},
    {"source_phase", (PyCFunction)Core_source_phase, METH_VARARGS,
     "source_phase(engine, cycle) -> node hint: traffic generation and injection "
     "(`SoAEngine._source_phase`)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simulation.soa._core.Core",
    .tp_doc = "Core(st, routing, rows, dropped, (arrival, head, leave hooks), speedup, "
              "router_latency, capture, stock)\n\n"
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

static PyMethodDef module_methods[] = {
    {"integers", (PyCFunction)(void (*)(void))module_integers, METH_FASTCALL,
     "integers(rng, low, high) -> int: `int(rng.integers(low, high))`, same value and same "
     "stream (`repro.draws.integers`)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.simulation.soa._core",
    .m_doc = "The compiled hop chain of the SoA engine (built from _core.c on first use).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *module;
#define INTERN_NAME(n) \
    if ((s_##n = PyUnicode_InternFromString(#n)) == NULL) \
        return NULL;
    NAMES(INTERN_NAME)
#define INTERN_FIELD(n) \
    if ((field_names[F_##n] = PyUnicode_InternFromString(#n)) == NULL) \
        return NULL;
    PACKET_FIELDS(INTERN_FIELD)
    if ((zero = PyLong_FromLong(0)) == NULL || (one = PyLong_FromLong(1)) == NULL
        || (kw_is_global = PyTuple_Pack(1, s_is_global)) == NULL
        || (kw_packet = PyTuple_Pack(5, field_names[F_pid], field_names[F_src],
                                     field_names[F_dst], field_names[F_size_phits],
                                     field_names[F_creation_cycle])) == NULL
        || (kw_bin = PyTuple_Pack(2, field_names[F_globally_misrouted],
                                  field_names[F_size_phits])) == NULL
        || PyType_Ready(&CoreType) < 0
        || (module = PyModule_Create(&core_module)) == NULL)
        return NULL;
    if (generator_type == NULL) {
        PyObject *numpy_random = PyImport_ImportModule("numpy.random");
        if (numpy_random != NULL) {
            generator_type = PyObject_GetAttrString(numpy_random, "Generator");
            Py_DECREF(numpy_random);
        }
    }
    if (generator_type == NULL
        || PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
