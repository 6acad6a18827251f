/* The hop chain of the SoA engine, compiled.
 *
 * One `Core` is bound to one `SoAState`: it holds the state's own lists,
 * tuples and integer columns (never copies, never the engine), owns the
 * three calendars of events due at later cycles (see "calendars": C structs
 * in pooled wheels, no Python object per event), and runs over them the
 * statements `SoAEngine` used to run in Python -- credit returns,
 * link arrivals, the pop / commit / release chain of a hop, the separable
 * allocator, the allocation rounds and the router-major merge walk of a
 * cycle -- and the routing work of a buffer head when the mechanism is a
 * stock one: the routing hooks, `Packet.record_hop`, the head captures (the
 * pure mechanisms' `select_output`, the adaptive path policies) and the
 * triggers of their open gates -- and an injection with its stock
 * `on_inject`, the topology queries of every topology from the node map,
 * route table, hop memo and sizes `Topology` holds for it (a Dragonfly's
 * link-offset tables, a torus's dateline state machine over its ring
 * table), the source phase of a cycle (the
 * stock Bernoulli generator, its destinations, `Packet(...)`,
 * `ComputeNode.enqueue`), the stock delivery accounting of
 * `MetricsCollector` and PB's saturation broadcast.  Everything a test or
 * a probe reads through `st.*` therefore stays live state: the integer
 * columns are `array('q')`s this core holds a buffer on, `Packet`s sit in
 * VC lists (or in a calendar event while on a link: `Core.calendars()` shows
 * those as event tuples), and the collector's counters, samples and
 * time-series bins are its own attributes.  The captured rows of the buffer
 * heads are the core's own C structs (see "rows"; `Core.row(q)` shows one as
 * a dict), and so is the request a head makes in an allocation round.
 *
 * A hook is answered here only while the function the instance resolves for
 * its name -- resolved the way a method call resolves it, the type's part
 * valid per type version, the instance dict's part per epoch (see "memo"
 * and "epoch") -- is the stock function `SoAEngine` handed over; a subclass override or a wrapper on the class or
 * the instance, installed at any time, is called by name instead, with the
 * arguments and in the order the object engine uses; the topology queries
 * follow the same rule.  What a stock body calls that is not transcribed --
 * a route-table fill by a topology's `_route_port` (the Dragonfly's
 * excepted), misses of the hop memo and of the routing's memos, the obs /
 * fault sub-calls -- is a Python call made from here, by name and in the
 * body's order.  A trigger's draw is answered here too, by
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

/* Row kinds (soa/engine.py, "Row kinds"); `ROW_LIVE` is the kind of a head
 * nobody captured and of a row on the free list. */
enum row_kind { ROW_LIVE = -1, ROW_FIXED, ROW_FORCED, ROW_GLOBAL, ROW_LOCAL };
static const char *const row_kinds[] = {"FIXED", "FORCED", "GLOBAL", "LOCAL"};

/* The decision a gate's pick makes: a local misroute, a global misroute
 * (into the candidate's group) or the local step to a proxy that must
 * misroute globally next. */
enum pick_kind { PICK_LOCAL, PICK_GLOBAL, PICK_PROXY };

/* The signals an adaptive trigger reads (bit i: `bind_trigger`'s i-th name). */
#define READS_COUNTERS 1
#define READS_OCCUPANCY 2
#define READS_COMBINED 4

/* Who writes the rows (`SoAEngine._capture`; -1: nobody, every row `LIVE`):
 * the pure capture or one of the adaptive path policies here. */
#define CAPTURE_PURE 0
#define CAPTURE_GROUP 1
#define CAPTURE_PORT_TABLE 2

/* Requests per round / occupied heads per router / events due in a cycle
 * held on the C stack. */
#define STACK_ITEMS 64

/* Defaulted `Packet` fields a packet built here can have. */
#define MAX_DEFAULTS 64

/* ------------------------------------------------------------------ names */
#define NAMES(X) \
    X(on_grant) X(on_packet_head) X(on_packet_arrival) X(on_packet_leave_input) \
    X(record_hop) X(is_global) X(vc) X(record_delivery) X(record_dropped) X(metrics) \
    X(obs) X(faults) X(active) X(unsorted) X(counts) \
    X(_live_request) X(on_head) X(on_leave) X(decrement) X(plain_decision) \
    X(global_candidates) X(local_candidates) X(router_candidates) X(ring_vc) \
    X(output_port) \
    X(_maybe_count_partial) X(_obs) X(_dateline) X(_commit_fault_hop) X(commit_ring_hop) \
    X(record_grant) X(minimal_output_port) X(minimal_route_to_router) X(router_hops) X(_route_port) \
    X(router_region) X(node_region) X(node_router) X(minimal_router_path) X(_hop_table) \
    X(_link_peer) X(_target_port) \
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
    X(activate_node) X(__init__) X(Packet) X(TimeSeriesPoint) X(deque) \
    X(valiant_intermediate_router) X(publish_flags) X(_pending) \
    X(notification_delay) X(_flags) X(_saturated_groups) X(add) X(discard) X(__version_probe__)

static PyObject *kw_is_global; /* ("is_global",) */
/* The keywords of `Packet(...)` in `generate` and of
 * `TimeSeriesRecorder.record`. */
static PyObject *kw_packet, *kw_bin;
static PyObject *zero, *one;   /* the ints 0 and 1 */

/* The `Packet` fields the chain reads and writes. */
#define PACKET_FIELDS(X) \
    X(pid) X(src) X(creation_cycle) X(fault_mode) X(dst) X(size_phits) X(valiant_router) \
    X(hops) X(global_hops) X(local_hops_in_group) X(vc_leg) X(ring_dim) \
    X(ring_crossed) X(ring_dir) X(globally_misrouted) X(locally_misrouted) \
    X(current_vc) X(delivered_cycle) X(contention_port) \
    X(ectn_offset) X(must_misroute_global) X(injection_cycle)

#define FIELD_ENUM(n) F_##n,
enum { PACKET_FIELDS(FIELD_ENUM) N_FIELDS };

/* Every name above, interned, by index (`N_<name>`; the packet fields last,
 * in field order): what the core reads and calls, and the key of its memo
 * (see "memo" below). */
#define NAME_INDEX(n) N_##n,
enum { NAMES(NAME_INDEX) PACKET_FIELDS(NAME_INDEX) N_NAMES };
static PyObject *name_of[N_NAMES];
#define FIELD_NAME(f) (N_pid + (f))

/* `RoutingDecision`'s fields, in order. */
#define DECISION_FIELDS(X) \
    X(output_port) X(vc) X(nonminimal_global) X(nonminimal_local) \
    X(set_must_misroute_global) X(set_fault_mode)
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
    X(ValiantRouting, on_packet_arrival) X(AdaptiveInTransitRouting, global_candidates) \
    X(AdaptiveInTransitRouting, local_candidates) \
    X(BaseContentionRouting, on_packet_head) X(BaseContentionRouting, on_packet_leave_input) \
    X(ECtNRouting, on_packet_head) X(ECtNRouting, on_packet_arrival) \
    X(ECtNRouting, on_packet_leave_input) X(ECtNRouting, _maybe_count_partial) \
    X(ECtNRouting, link_offset_for_destination) \
    X(ContentionTracker, on_head) X(ContentionTracker, on_leave) \
    X(ContentionCounters, decrement) \
    X(Topology, router_region) X(Topology, node_region) X(Topology, node_router) \
    X(Topology, minimal_output_port) X(Topology, minimal_route_to_router) \
    X(Topology, router_hops) X(Topology, minimal_router_path) X(Topology, port_target_region) \
    X(DragonflyTopology, _route_port) X(TorusTopology, ring_vc) X(TorusTopology, commit_ring_hop) \
    X(MinimalRouting, select_output) X(ValiantRouting, select_output) \
    X(MetricsCollector, record_delivery) X(MetricsCollector, record_generated) \
    X(MetricsCollector, in_window) X(TimeSeriesRecorder, record) \
    X(BernoulliTrafficGenerator, generate) X(UniformTraffic, destination) \
    X(AdversarialTraffic, destination) X(TransientTraffic, destination) \
    X(TrafficPattern, _random_node_excluding) X(Topology, region_node_range) \
    X(ComputeNode, enqueue) X(Network, activate_node) \
    X(ValiantRouting, random_intermediate_router) X(Topology, valiant_intermediate_router) \
    X(PiggybackRouting, publish_flags)
/* What a stock body reads or builds with that its class's source does not
 * define as a function: the size properties of `Topology` (compared with
 * what the type's MRO holds, never called), in `enum size` order, and the
 * dataclass-made `Packet.__init__`. */
#define STOCK_ATTRIBUTES(X) \
    X(Topology, num_nodes) X(Topology, num_routers) X(Topology, num_regions) \
    X(Topology, routers_per_region) X(Topology, nodes_per_router) X(Packet, __init__)
#define STOCK_OBJECTS(X) \
    X(Packet) X(RoutingDecision) X(ECtNRouting) X(DragonflyTopology) X(GLOBAL) X(draws) \
    X(packet_defaults) X(NO_EVENT)

/* What the stock hook bodies, the triggers and the captures read off the
 * routing, bound once: the topology, and where the mechanism has them, the
 * contention tracker, its counter arrays, ECtN's partial and combined arrays,
 * PB's flags, the routers' shared candidate tuples (`None` otherwise) and
 * the tables and memos of the path policy; off the topology its node ->
 * router table, route table and router-target table, and where it has them
 * a Dragonfly's link-offset table and a torus's ring table. */
#define ROUTING_MEMBERS(X) \
    X(topology) X(tracker) X(counters) X(partial) X(combined) X(flags) X(shared) X(plain) \
    X(ring_dims) X(port_candidates) X(node_rid) X(updown_vcs) \
    X(route_table) X(target_table) X(link_offsets) X(ring_info)

/* ------------------------------------------------------------------ slots */
/* The state members the core holds.  `active` and `unsorted` are not among
 * them: the state rebinds those, so they are read through `st` when needed.
 * The flags are lists of bools. */
enum member_kind { LIST, TUPLE };
#define STATE_MEMBERS(X) \
    X(in_q, LIST) X(head_seen, LIST) \
    X(occ, LIST) X(new_heads, LIST) X(alloc_clean, LIST) X(active_flag, LIST) X(views, LIST) \
    X(kind_is_injection, TUPLE) X(kind_is_global, TUPLE)

/* The integer columns the core reads and writes as numbers: `array('q')`s,
 * each held through a buffer from `__init__` to `Core_clear` (which keeps
 * the array from resizing under it). */
#define STATE_COLUMNS(X) \
    X(in_free) X(credits) X(max_credits) X(up_lat) X(out_committed) X(out_free) X(link_busy) \
    X(link_booked) X(link_lat) X(ser_fac) X(credit_occ) X(in_ptr) X(out_ptr) X(in_nvcs) \
    X(alloc_nvc) X(up_g) X(up_rid) X(down_g)
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

/* ------------------------------------------------------------------ memo */
/* What a name resolves to on a type's MRO (see "name cache" below). */
enum entry_kind {
    E_PLAIN,  /* nothing, a plain class attribute or a non-data descriptor */
    E_SLOT,   /* a writable object slot of `__slots__`, at `offset` */
    E_DATA,   /* another data descriptor: a property, a getset, a member */
    E_METHOD, /* a method descriptor (a function): what a method call binds */
};

/* One answer of the core's memo for a name (`N_*`): its type part -- what
 * `type`'s MRO holds for the name, good while the type's version tag is
 * `tag` -- and its instance part -- what the instance `self` has for it,
 * good for the epoch it was read in (see "epoch" below): for a method name
 * the entry of the instance's own `__dict__` (NULL: none), for another name
 * the value a lookup that ran no Python code returned.  The type and the
 * objects it found are compared and trusted only under the tag, never held;
 * `self` is held, so an address cannot be reused while it is remembered. */
typedef struct {
    PyTypeObject *type; /* NULL: an empty or one-use entry */
    unsigned int tag;
    int kind;           /* `enum entry_kind` */
    int stock;          /* `found` is a stock function (`STOCK_FUNCTIONS`) */
    Py_ssize_t offset;  /* E_SLOT */
    PyObject *found;    /* what the MRO holds (NULL: nothing) */
    PyObject *self;     /* the instance part's object (held), or NULL */
    uint64_t epoch;
    PyObject *own;
} memo;

/* Types a name is memoised for at once (a name the core reads off two kinds
 * of object, like `active` off nodes and the state, keeps both). */
#define MEMO_WAYS 2

/* The size properties `Topology` defines, in `STOCK_ATTRIBUTES` order. */
enum size { Z_NUM_NODES, Z_NUM_ROUTERS, Z_NUM_REGIONS, Z_ROUTERS_PER_REGION, Z_NODES_PER_ROUTER,
            N_SIZES };

/* ------------------------------------------------------------- calendars */
/* Everything a grant schedules for a later cycle -- credit returns, link
 * arrivals, output-port releases -- waits in one of three calendars.  A
 * calendar is a pool of `event`s, grown by doubling and recycled through a
 * free list, so its memory follows the peak number of events in flight, and
 * a wheel of `WHEEL` slots: slot `due & (WHEEL - 1)` holds the FIFO list of
 * the events due then or whole turns later.  A pop at `cycle` takes exactly
 * the events due at `cycle`, in push order, so the wheel's size decides how
 * far a slot's list is walked and never a result. */
#define WHEEL 256

enum calendar_kind { CAL_CREDIT, CAL_ARRIVAL, CAL_RELEASE, N_CALENDARS };
static const char *const calendar_names[N_CALENDARS] = {"credit", "arrival", "release"};

/* One scheduled event: a credit return `(rid, g, q, phits)`, a link arrival
 * `(g, vc)` with its packet, a release `(g, phits, link-free cycle)` with the
 * packet only on an ejection port, or a release *marker* (`f[0]` -1): the
 * pipeline exit of a grant behind a busy link, which a pop drops and the
 * warp horizon sees. */
typedef struct {
    long due;
    long f[4];
    PyObject *packet; /* held, or NULL */
    /* In a calendar the next event of its slot or of the free list (-1:
     * none); in a `due_list` the order it was popped in. */
    int32_t next;
} event;

typedef struct {
    event *pool;     /* NULL until the first push */
    int32_t *slot;   /* the first and the last event of each wheel slot */
    int32_t capacity, free;
    Py_ssize_t live, held; /* events in the calendar; those holding a packet */
    long floor;      /* no event is due before it */
} calendar;

/* ------------------------------------------------------------------ rows */
/* A buffer head's captured row (soa/engine.py, "Row kinds"), written once by
 * the capture and read by every allocation round.  The rows live in a pool
 * grown by doubling and recycled through a free list, as the calendars' events
 * do, so their memory follows the heads in the fabric; `slot[q]`, a column
 * made at the first capture, is the pool index + 1 of VC `q`'s row (0: nobody
 * captured the head, it is `LIVE`).  A row is taken at capture and returned
 * when its head leaves (`pop_head`).  The input port and VC are `q`'s, the
 * output buffer and the credit counter the request's port's: none is
 * stored. */
typedef struct {
    int kind;             /* `enum row_kind` */
    /* The fixed request -- a gate's fallback: output port, VC and size, and
     * its decision (held; NULL: the head makes no request). */
    long out_port, vc, size;
    PyObject *decision;
    /* A gate's minimal port and candidates in order: a list as it is, or
     * (`view`) the router's shared candidate tuple from `first` on, for
     * `dst_group`, with its local ports only for a `proxy` (see `walk`). */
    long minimal, first, dst_group;
    PyObject *candidates; /* held, or NULL */
    int view, proxy;
    /* The VCs of a global and of a local pick. */
    long global_vc, local_vc;
    /* ECtN's injection-side constants (`ectn` 0: none): the group, its
     * minimal link's offset, the port -> offset base. */
    int ectn;
    long ectn_group, ectn_min_offset, ectn_base;
    int32_t next;         /* on the free list: the next free row (-1: none) */
} row;

typedef struct {
    row *pool;            /* NULL until the first capture */
    int32_t *slot;        /* per VC `q`, `slots` of them: NULL until then too */
    Py_ssize_t slots, heads; /* `heads`: R * P * V where the engine captures */
    int32_t capacity, free;
} row_pool;

/* One head's request in an allocation round: the row's fixed request, a
 * `LIVE` head's decision, or a gate's pick, whose decision `commit` makes
 * only if it is granted. */
typedef struct {
    long in_port, in_vc, out_port, vc, size;
    PyObject *decision;   /* held; NULL for a pick */
    PyObject *chosen;     /* a pick's candidate (held), else NULL */
    int pick;             /* `enum pick_kind` of a pick */
    Py_ssize_t key;       /* `allocate`: the position of its head's key */
} request;

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
    long draws; /* trigger draws so far: a pass that moved it drew */
    /* The capture (`CAPTURE_*`, -1: none) and the routing's constants it
     * reads: nodes per router, routers / nodes per group, the global and
     * local VC counts, the global ports of a shared candidate tuple, ECtN's
     * links per router and first global port. */
    int capture;
    long npr, rpg, npg, global_vcs, local_vcs, num_global, h, first_global;
    /* The pure capture's: nodes per region (VAL), whether the topology has
     * global ports, whether it is a dateline topology (`hop_vc` asks the ring
     * state machine, `ring_vc`). */
    long npreg;
    int has_global_ports, dateline;
    /* Whether the topology is a `DragonflyTopology` with its sizes bound,
     * and its global ports per router. */
    int dragonfly;
    long df_h;
    /* The routing's own topology's sizes (`enum size`), read when the core
     * was bound where its type resolved every size property to the stock one
     * and it has a node map and a route table (`sizes` 0 otherwise: no query
     * of the base `Topology` is answered in C then), and the type version
     * the properties were last checked under. */
    int sizes;
    long size[N_SIZES];
    long nodes_per_region; /* `num_nodes // num_regions` of those */
    unsigned int sizes_tag;
    /* Bound with the sizes: the peer table (`_peer_table`, `radix` entries
     * per router), the Valiant window (first position, width, whether the
     * source region is skipped) and the longest minimal path's hops. */
    Py_buffer peers;
    long radix, valiant_window[3], max_minimal_hops;
    /* UGAL's `T`, in phits. */
    double valiant_threshold;
    /* `Packet`, whose exact instances are read and written at the slot
     * offsets bound for the type version `packet_tag` (`packet_slots`: every
     * field is a writable object slot under it; rebound when the tag moves). */
    PyTypeObject *packet_type;
    unsigned int packet_tag;
    int packet_slots;
    Py_ssize_t offset[N_FIELDS];
    /* A `Packet` built here: the offsets of its defaulted fields, whose
     * defaults `stock["packet_defaults"][1]` holds in that order (`defaults`
     * -1: the class is called), and whether the class holds the stock
     * `__init__` (`packet_init`); bound with the slots. */
    Py_ssize_t defaults, default_offset[MAX_DEFAULTS];
    int packet_init;
    long no_event; /* `_NO_EVENT`: no node has a pending injection */
    memo memo[N_NAMES][MEMO_WAYS];
    calendar cal[N_CALENDARS];
    long clock; /* the cycle after the last router phase's */
    row_pool rows;
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

/* `items.sort(key=...)` with an int key (read with the core `c`): stable. */
static int
sort_by(Core *c, PyObject *items, int (*key_of)(Core *, PyObject *, long *))
{
    Py_ssize_t n = PyList_GET_SIZE(items), i;
    sort_entry *entries;
    long previous = 0, key;
    int sorted = 1;
    if (n < 2)
        return 0;
    for (i = 0; i < n; i++) {
        if (key_of(c, PyList_GET_ITEM(items, i), &key) < 0)
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
        if (key_of(c, entries[i].item, &entries[i].key) < 0) {
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

/* ------------------------------------------------------------- calendars */
/* Events popped for one cycle, in the order they were popped, each holding
 * its packet: on the C stack up to `STACK_ITEMS`, then on the heap.  A list
 * points into itself, so it is never copied or swapped, only filled. */
typedef struct {
    event *items;
    Py_ssize_t n, capacity;
    event stack[STACK_ITEMS];
} due_list;

static void
due_init(due_list *d)
{
    d->items = d->stack;
    d->n = 0;
    d->capacity = STACK_ITEMS;
}

/* Room for one more event. */
static int
due_reserve(due_list *d)
{
    event *items;
    Py_ssize_t capacity = 2 * d->capacity;
    if (d->n < d->capacity)
        return 0;
    if (d->items == d->stack) {
        if ((items = PyMem_Malloc((size_t)capacity * sizeof(event))) != NULL)
            memcpy(items, d->stack, (size_t)d->n * sizeof(event));
    }
    else
        items = PyMem_Realloc(d->items, (size_t)capacity * sizeof(event));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    d->items = items;
    d->capacity = capacity;
    return 0;
}

/* Release the packets and the heap part; the list is empty after. */
static void
due_free(due_list *d)
{
    Py_ssize_t i, n = d->n;
    d->n = 0;
    for (i = 0; i < n; i++)
        Py_CLEAR(d->items[i].packet);
    if (d->items != d->stack)
        PyMem_Free(d->items);
    due_init(d);
}

static int
compare_events(const void *a, const void *b)
{
    const event *x = a, *y = b;
    if (x->f[0] != y->f[0])
        return x->f[0] < y->f[0] ? -1 : 1;
    return x->next < y->next ? -1 : (x->next > y->next);
}

/* Sort `d->items[from:]` by port, then by pop order: the (router, port)
 * order the object engine's per-router `begin_cycle` and `transmit` keep. */
static void
due_sort(due_list *d, Py_ssize_t from)
{
    Py_ssize_t i;
    for (i = from + 1; i < d->n && compare_events(&d->items[i - 1], &d->items[i]) < 0; i++)
        ;
    if (i < d->n)
        qsort(d->items + from, (size_t)(d->n - from), sizeof(event), compare_events);
}

/* Empty, with nothing allocated.  A zeroed calendar must come through here
 * before its first push: its `free` 0 would name an event it has not got. */
static void
cal_clear(calendar *cal)
{
    event *pool = cal->pool;
    int32_t i, n = cal->capacity;
    PyMem_Free(cal->slot);
    cal->pool = NULL;
    cal->slot = NULL;
    cal->capacity = 0;
    cal->free = -1;
    cal->live = cal->held = 0;
    cal->floor = LONG_MAX;
    /* Detached first: a packet's release may run any code. */
    for (i = 0; i < n; i++)
        Py_XDECREF(pool[i].packet);
    PyMem_Free(pool);
}

/* Twice the pool (the wheel with the first one), the new events free. */
static int
cal_grow(calendar *cal)
{
    int32_t old = cal->capacity, size, i;
    event *pool;
    if (old > INT32_MAX / 2) {
        PyErr_SetString(PyExc_MemoryError, "too many calendar events in flight");
        return -1;
    }
    size = old ? 2 * old : 64;
    if (cal->slot == NULL) {
        if ((cal->slot = PyMem_Malloc(2 * WHEEL * sizeof(int32_t))) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (i = 0; i < 2 * WHEEL; i++)
            cal->slot[i] = -1;
    }
    if ((pool = PyMem_Realloc(cal->pool, (size_t)size * sizeof(event))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = old; i < size; i++) {
        pool[i].packet = NULL;
        pool[i].next = i + 1 < size ? i + 1 : cal->free;
    }
    cal->pool = pool;
    cal->capacity = size;
    cal->free = old;
    return 0;
}

/* A new event due at `due`, holding `packet` (may be NULL), at the end of
 * its slot; the caller fills `f` before the next push (which may move the
 * pool).  NULL on error. */
static event *
cal_push(calendar *cal, long due, PyObject *packet)
{
    int32_t i, *slot;
    event *e;
    if (cal->free < 0 && cal_grow(cal) < 0)
        return NULL;
    i = cal->free;
    e = &cal->pool[i];
    cal->free = e->next;
    e->due = due;
    e->next = -1;
    e->packet = Py_XNewRef(packet);
    slot = &cal->slot[2 * (due & (WHEEL - 1))];
    if (slot[1] < 0)
        slot[0] = i;
    else
        cal->pool[slot[1]].next = i;
    slot[1] = i;
    cal->live++;
    cal->held += packet != NULL;
    if (due < cal->floor)
        cal->floor = due;
    return e;
}

/* The events due at `cycle`, in push order, onto the end of `out` (which
 * owns their packets then); markers are dropped. */
static int
cal_pop(calendar *cal, long cycle, due_list *out)
{
    int32_t *slot, i, previous = -1;
    if (cal->live > 0) {
        slot = &cal->slot[2 * (cycle & (WHEEL - 1))];
        for (i = slot[0]; i >= 0;) {
            event *e = &cal->pool[i];
            int32_t next = e->next;
            if (e->due != cycle) {
                previous = i;
                i = next;
                continue;
            }
            if (e->f[0] >= 0) {
                if (due_reserve(out) < 0)
                    return -1;
                out->items[out->n] = *e;
                out->items[out->n].next = (int32_t)out->n;
                out->n++;
            }
            if (previous < 0)
                slot[0] = next;
            else
                cal->pool[previous].next = next;
            if (slot[1] == i)
                slot[1] = previous;
            cal->held -= e->packet != NULL;
            cal->live--;
            e->packet = NULL; /* `out` holds it now */
            e->next = cal->free;
            cal->free = i;
            i = next;
        }
    }
    if (cal->floor <= cycle)
        cal->floor = cycle + 1;
    return 0;
}

/* The earliest due cycle of the calendar (LONG_MAX: none): the first wheel
 * slot from `floor` on with an event due on its turn, else -- everything is
 * a turn or more ahead -- the minimum over every slot. */
static long
cal_horizon(calendar *cal)
{
    long k, best = LONG_MAX;
    int32_t i;
    if (cal->live == 0)
        return LONG_MAX;
    for (k = 0; k < WHEEL; k++) {
        long due = cal->floor + k;
        for (i = cal->slot[2 * (due & (WHEEL - 1))]; i >= 0; i = cal->pool[i].next)
            if (cal->pool[i].due == due)
                return cal->floor = due;
    }
    for (k = 0; k < WHEEL; k++)
        for (i = cal->slot[2 * k]; i >= 0; i = cal->pool[i].next)
            if (cal->pool[i].due < best)
                best = cal->pool[i].due;
    return cal->floor = best;
}

/* An event of calendar `kind` read off its tuple shape: a credit return
 * `(rid, g, q, phits)`, a link arrival `(g, vc, packet)`, a release
 * `(g, phits, link-free cycle, packet or None)`; `packet` borrowed. */
static int
event_from_tuple(int kind, PyObject *t, event *e)
{
    static const char *const what[N_CALENDARS] = {"a credit return", "a link arrival",
                                                  "a release"};
    Py_ssize_t longs = kind == CAL_CREDIT ? 4 : kind == CAL_ARRIVAL ? 2 : 3, i;
    if (expect_tuple(t, kind == CAL_ARRIVAL ? 3 : 4, what[kind]) < 0)
        return -1;
    e->packet = NULL;
    for (i = 0; i < longs; i++)
        if (as_long(PyTuple_GET_ITEM(t, i), &e->f[i]) < 0)
            return -1;
    if (kind != CAL_CREDIT && PyTuple_GET_ITEM(t, longs) != Py_None)
        e->packet = PyTuple_GET_ITEM(t, longs);
    else if (kind == CAL_ARRIVAL) {
        PyErr_Format(PyExc_TypeError, "a link arrival carries a packet, got %R", t);
        return -1;
    }
    if (e->f[0] < 0) {
        PyErr_Format(PyExc_IndexError, "%s names a negative index: %R", what[kind], t);
        return -1;
    }
    return 0;
}

/* The tuple shape of an event of calendar `kind` (a new reference). */
static PyObject *
event_tuple(int kind, const event *e)
{
    PyObject *packet = e->packet != NULL ? e->packet : Py_None;
    if (kind == CAL_CREDIT)
        return Py_BuildValue("(llll)", e->f[0], e->f[1], e->f[2], e->f[3]);
    if (kind == CAL_ARRIVAL)
        return Py_BuildValue("(llO)", e->f[0], e->f[1], packet);
    return Py_BuildValue("(lllO)", e->f[0], e->f[1], e->f[2], packet);
}

/* A list of event tuples of calendar `kind` into `out`, in list order (a
 * test surface: the chain's bodies run on what it pops). */
static int
due_from_list(int kind, PyObject *events, due_list *out)
{
    Py_ssize_t i;
    if (expect_list(events, "due") < 0)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(events); i++) {
        event e;
        memset(&e, 0, sizeof e);
        if (event_from_tuple(kind, PyList_GET_ITEM(events, i), &e) < 0 || due_reserve(out) < 0)
            return -1;
        e.next = (int32_t)out->n;
        Py_XINCREF(e.packet);
        out->items[out->n++] = e;
    }
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

/* ------------------------------------------------------------------ rows */
/* Release what a row holds; it is empty after. */
static void
row_clear(row *r)
{
    Py_CLEAR(r->decision);
    Py_CLEAR(r->candidates);
}

/* No row, nothing allocated, nothing to capture. */
static void
rows_clear(row_pool *t)
{
    row *pool = t->pool;
    int32_t i, n = t->capacity;
    PyMem_Free(t->slot);
    t->pool = NULL;
    t->slot = NULL;
    t->slots = t->heads = 0;
    t->capacity = 0;
    t->free = -1;
    /* Detached first: a decision's release may run any code. */
    for (i = 0; i < n; i++)
        row_clear(&pool[i]);
    PyMem_Free(pool);
}

/* The row of VC `q` (NULL: the head is `LIVE`).  Valid until the next
 * capture, which may move the pool, and the next call that may run Python
 * code. */
static inline row *
row_of(Core *c, long q)
{
    const row_pool *t = &c->rows;
    int32_t i;
    if ((size_t)q >= (size_t)t->slots || (i = t->slot[q]) == 0)
        return NULL;
    return &t->pool[i - 1];
}

/* Twice the pool, the new rows free. */
static int
rows_grow(row_pool *t)
{
    int32_t old = t->capacity, size, i;
    row *pool;
    if (old > INT32_MAX / 2) {
        PyErr_SetString(PyExc_MemoryError, "too many captured heads");
        return -1;
    }
    size = old ? 2 * old : 64;
    if ((pool = PyMem_Realloc(t->pool, (size_t)size * sizeof(row))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(pool + old, 0, (size_t)(size - old) * sizeof(row));
    for (i = old; i < size; i++) {
        pool[i].kind = ROW_LIVE;
        pool[i].next = i + 1 < size ? i + 1 : t->free;
    }
    t->pool = pool;
    t->capacity = size;
    t->free = old;
    return 0;
}

/* VC `q`'s head left: its row goes back to the free list. */
static void
release_row(Core *c, long q)
{
    row_pool *t = &c->rows;
    row *r = row_of(c, q), held;
    int32_t i;
    if (r == NULL)
        return;
    i = t->slot[q] - 1;
    held = *r;
    memset(r, 0, sizeof *r);
    r->kind = ROW_LIVE;
    r->next = t->free;
    t->free = i;
    t->slot[q] = 0;
    row_clear(&held); /* detached first, as in `rows_clear` */
}

/* `r` becomes VC `q`'s row, its references with it (they are released on
 * error too). */
static int
store_row(Core *c, long q, row *r)
{
    row_pool *t = &c->rows;
    int32_t i;
    if ((size_t)q >= (size_t)t->heads) {
        row_clear(r);
        PyErr_SetString(PyExc_IndexError, "no row for this VC");
        return -1;
    }
    if (t->slot == NULL) {
        if ((t->slot = PyMem_Calloc((size_t)t->heads, sizeof(int32_t))) == NULL) {
            row_clear(r);
            PyErr_NoMemory();
            return -1;
        }
        t->slots = t->heads;
    }
    release_row(c, q);
    if (t->free < 0 && rows_grow(t) < 0) {
        row_clear(r);
        return -1;
    }
    i = t->free;
    t->free = t->pool[i].next;
    r->next = -1;
    t->pool[i] = *r;
    t->slot[q] = i + 1;
    return 0;
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
        PyObject *nothing = PyObject_GetAttr((PyObject *)type, name_of[N___version_probe__]);
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
#ifdef Py_TPFLAGS_MANAGED_DICT /* 3.11 */
    return type->tp_dictoffset != 0 || PyType_HasFeature(type, Py_TPFLAGS_MANAGED_DICT);
#else
    return type->tp_dictoffset != 0;
#endif
}

/* Whether `mro(type)` (after class `after`, or NULL) resolves `name` to
 * `value` -- compared, never called.  1 / 0, -1 on error. */
static int
mro_resolves(PyTypeObject *type, PyObject *name, PyObject *after, PyObject *value)
{
    cache_entry scratch, *e = lookup(type, name, after, &scratch);
    return e == NULL ? -1 : e->found == value;
}

/* ------------------------------------------------------------------ epoch */
/* What an instance's own `__dict__` holds, and what a generic lookup finds
 * there, can change whenever Python code runs.  `epoch` numbers the
 * stretches in which none can have: it goes up at every entry into the core
 * (the caller's code ran since the last one) and after every call the core
 * makes that may run Python code -- a method, hook or callable called (a
 * built-in method of an immutable built-in type, like `deque.popleft` or a
 * lock's `acquire`, is C code and does not count), a property or another
 * Python-level descriptor read or written, a lookup the generic path makes
 * on a type with its own `__getattribute__`.  The instance part of a memo
 * entry holds for the epoch it was read in.  A stock cycle calls no Python
 * code, so it reads each instance dict once per entry.  Python that runs on
 * its own inside such a stretch -- a finalizer of an object the core
 * releases, a weakref callback -- is not a call the core makes and does not
 * end it. */
static uint64_t epoch = 1;

static inline void
new_epoch(void)
{
    epoch++;
}

/* Whether `descriptor` is one whose `__get__` / `__set__` is C code of the
 * interpreter: a getset (a C property) or a member. */
static inline int
c_descriptor(PyObject *descriptor)
{
    return Py_IS_TYPE(descriptor, &PyGetSetDescr_Type)
           || Py_IS_TYPE(descriptor, &PyMemberDescr_Type);
}

/* ------------------------------------------------------------------- memo */
/* The core's memo of what the names it reads and calls resolve to, one
 * entry per name and type (`MEMO_WAYS` types per name, the most recently
 * used first): a hit is a type and tag compare -- no hash -- and, for an
 * object with a `__dict__`, an identity and epoch compare.  A miss is filled
 * from the name cache.  With no core (`c` NULL) `scratch` is filled and used
 * once. */

/* Whether `function` is one of the stock functions. */
static int
is_stock_function(Core *c, PyObject *function)
{
#define STOCK_IS(owner, name) || function == STOCK(c, owner, name)
    return function != NULL && (0 STOCK_FUNCTIONS(STOCK_IS));
#undef STOCK_IS
}

/* The type part of name `n` on `type`: the entry, valid now.  NULL on
 * error. */
static memo *
type_part(Core *c, PyTypeObject *type, int n, memo *scratch)
{
    memo *ways, *e;
    cache_entry found_scratch, *found;
    PyObject *evicted = NULL;
    unsigned int tag = type->tp_version_tag;
    int tagged = tag_valid(type), way;
    if (c != NULL) {
        ways = c->memo[n];
        for (way = 0; tagged && way < MEMO_WAYS; way++)
            if (ways[way].type == type && ways[way].tag == tag) {
                if (way > 0) {
                    memo hit = ways[way];
                    memmove(&ways[1], &ways[0], (size_t)way * sizeof(memo));
                    ways[0] = hit;
                }
                return &ways[0];
            }
    }
    if ((found = lookup(type, name_of[n], NULL, &found_scratch)) == NULL)
        return NULL;
    if (c == NULL || found == &found_scratch) {
        e = scratch;
        e->type = NULL;
    }
    else {
        ways = c->memo[n];
        evicted = ways[MEMO_WAYS - 1].self;
        memmove(&ways[1], &ways[0], (MEMO_WAYS - 1) * sizeof(memo));
        e = &ways[0];
        e->type = type;
        e->tag = found->tag;
    }
    e->self = NULL;
    e->kind = found->kind;
    e->offset = found->offset;
    e->found = found->found;
    e->stock = c != NULL && e->kind == E_METHOD && is_stock_function(c, e->found);
    Py_XDECREF(evicted); /* last: releasing it may run Python */
    return e;
}

/* Whether the instance part of `e` answers for `self` now. */
static inline int
remembered(memo *e, PyObject *self)
{
    return e->self == self && e->epoch == epoch;
}

/* Remember `own` as what `self` has for the entry's name, this epoch. */
static inline void
remember(memo *e, PyObject *self, PyObject *own)
{
    PyObject *previous = e->self;
    if (e->type == NULL)
        return;
    e->self = Py_NewRef(self);
    e->epoch = epoch;
    e->own = own;
    Py_XDECREF(previous); /* last: releasing it may run Python */
}

/* What `self.<name n>` resolves to, the way a method call resolves it -- the
 * instance's own attribute first, then the type's -- when that is a stock
 * function: `*fn` is the function (borrowed), else NULL -- which equals no
 * stock slot (a missing stock function is `None`) -- and the hook is called
 * by name.  Where the instance has a `__dict__`, whether it holds the
 * name is read only for a type whose function is a stock one: reading an
 * instance dict through the API turns the object's attributes into a dict
 * for good, which slows every Python method of the object.  A dict that
 * cannot be read leaves the answer "no".  0, -1 on error. */
static int
stock_hook(Core *c, PyObject *self, int n, PyObject **fn)
{
    PyTypeObject *type = Py_TYPE(self);
    PyObject *found;
    memo scratch, *e;
    *fn = NULL;
    if (type->tp_getattro != PyObject_GenericGetAttr)
        return 0;
    if ((e = type_part(c, type, n, &scratch)) == NULL)
        return -1;
    if (!e->stock)
        return 0;
    found = e->found;
    if (has_dict(type) && !remembered(e, self)) {
        PyObject *dict = PyObject_GenericGetDict(self, NULL), *own = NULL;
        if (dict != NULL) {
            own = PyDict_GetItemWithError(dict, name_of[n]); /* the dict holds it */
            Py_DECREF(dict);
        }
        if (own == NULL && PyErr_Occurred()) {
            PyErr_Clear();
            return 0;
        }
        remember(e, self, own);
        if (own != NULL)
            return 0;
    }
    else if (has_dict(type) && e->own != NULL)
        return 0;
    *fn = found;
    return 0;
}

/* Whether `super(owner, self).<name n>` is the stock function `function`:
 * the first class after `owner` in `type(self).__mro__` whose namespace
 * holds the name is the one `super()` finds.  1 / 0, -1 on error. */
static int
super_is(PyObject *self, PyObject *owner, int n, PyObject *function)
{
    return mro_resolves(Py_TYPE(self), name_of[n], owner, function);
}

/* `obj.<name n>` (a new reference): a slot read at its offset, a data
 * descriptor's `__get__`, the value the instance part remembers, else the
 * generic lookup -- the first three while the type keeps the generic
 * `__getattribute__`.  A lookup that can run no Python code -- the instance
 * dict, then a plain class attribute -- is remembered for the epoch; what
 * may run Python code (a property, a type's own `__getattribute__`) ends
 * the epoch.  An exact module's dict is read the same way while its type
 * defines no attribute of the name. */
static PyObject *
get_attr(Core *c, PyObject *obj, int n)
{
    PyTypeObject *type = Py_TYPE(obj);
    PyObject *value;
    memo scratch, *e;
    if (type->tp_getattro == PyObject_GenericGetAttr) {
        if ((e = type_part(c, type, n, &scratch)) == NULL)
            return NULL;
        if (e->kind == E_SLOT) {
            value = *(PyObject **)((char *)obj + e->offset);
            /* An unset slot: the generic lookup raises, running nothing. */
            return value != NULL ? Py_NewRef(value) : PyObject_GenericGetAttr(obj, name_of[n]);
        }
        if (e->kind == E_DATA) {
            PyObject *descriptor = Py_NewRef(e->found);
            value = Py_TYPE(descriptor)->tp_descr_get(descriptor, obj, (PyObject *)type);
            if (!c_descriptor(descriptor))
                new_epoch();
            Py_DECREF(descriptor);
            return value;
        }
        if (e->found == NULL || Py_TYPE(e->found)->tp_descr_get == NULL) {
            if (remembered(e, obj) && e->own != NULL)
                return Py_NewRef(e->own);
            /* Held by the instance or the class: good for the epoch. */
            if ((value = PyObject_GenericGetAttr(obj, name_of[n])) != NULL && has_dict(type))
                remember(e, obj, value);
            return value;
        }
    }
    else if (PyModule_CheckExact(obj)) {
        if ((e = type_part(c, type, n, &scratch)) == NULL)
            return NULL;
        if (e->found == NULL) {
            if (remembered(e, obj))
                return Py_NewRef(e->own);
            value = PyDict_GetItemWithError(PyModule_GetDict(obj), name_of[n]);
            if (value != NULL) {
                remember(e, obj, value);
                return Py_NewRef(value);
            }
            if (PyErr_Occurred())
                return NULL;
        }
    }
    value = PyObject_GetAttr(obj, name_of[n]);
    new_epoch();
    return value;
}

/* `obj.<name n> = value`: a slot written at its offset while the type keeps
 * the generic `__setattr__`, else the generic assignment, after which the
 * name's instance parts are forgotten (and the epoch ends where a Python
 * setter may have run). */
static int
set_attr(Core *c, PyObject *obj, int n, PyObject *value)
{
    PyTypeObject *type = Py_TYPE(obj);
    memo scratch, *e;
    int failed, way, python = 1;
    if (type->tp_setattro == PyObject_GenericSetAttr) {
        if ((e = type_part(c, type, n, &scratch)) == NULL)
            return -1;
        if (e->kind == E_SLOT) {
            PyObject **slot = (PyObject **)((char *)obj + e->offset), *old = *slot;
            *slot = Py_NewRef(value);
            Py_XDECREF(old);
            return 0;
        }
        python = e->found != NULL && Py_TYPE(e->found)->tp_descr_set != NULL
                 && !c_descriptor(e->found);
    }
    failed = PyObject_SetAttr(obj, name_of[n], value);
    for (way = 0; c != NULL && way < MEMO_WAYS; way++)
        c->memo[n][way].epoch = 0;
    if (python)
        new_epoch();
    return failed;
}

/* `int(owner.<name n>)`. */
static int
attr_long(Core *c, PyObject *owner, int n, long *out)
{
    PyObject *value = get_attr(c, owner, n);
    int failed;
    if (value == NULL)
        return -1;
    failed = as_long(value, out);
    Py_DECREF(value);
    return failed;
}

/* `owner.<name n> = v`. */
static int
set_attr_long(Core *c, PyObject *owner, int n, long v)
{
    PyObject *value = PyLong_FromLong(v);
    int failed;
    if (value == NULL)
        return -1;
    failed = set_attr(c, owner, n, value);
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

/* ---------------------------------------------------------------- by name */
/* `args[0].<name n>(*args[1:])`, resolved as a method call resolves it (a
 * new reference).  A built-in method of an immutable built-in type runs C
 * code; any other call may run Python code and ends the epoch. */
static PyObject *
call_method(Core *c, int n, PyObject *const *args, size_t nargs, PyObject *kwnames)
{
    PyTypeObject *type = Py_TYPE(args[0]);
    PyObject *result;
    if (PyType_HasFeature(type, Py_TPFLAGS_IMMUTABLETYPE) && !has_dict(type)
        && type->tp_getattro == PyObject_GenericGetAttr) {
        memo scratch, *e = type_part(c, type, n, &scratch);
        if (e == NULL)
            return NULL;
        if (e->kind == E_METHOD && Py_IS_TYPE(e->found, &PyMethodDescr_Type))
            return PyObject_Vectorcall(e->found, args, nargs, kwnames);
    }
    result = PyObject_VectorcallMethod(name_of[n], args, nargs, kwnames);
    new_epoch();
    return result;
}

/* Call for effect. */
static inline int
call_void(Core *c, int n, PyObject *const *args, size_t nargs)
{
    PyObject *result = call_method(c, n, args, nargs, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* `call_method` answered as an int. */
static int
call_long(Core *c, int n, PyObject *const *args, size_t nargs, long *out)
{
    PyObject *answer = call_method(c, n, args, nargs, NULL);
    int failed = answer == NULL ? -1 : as_long(answer, out);
    Py_XDECREF(answer);
    return failed;
}

/* `callable(*args)` (a new reference).  A built-in function or an immutable
 * built-in type (`deque`) is C code; any other callable may be Python code
 * and ends the epoch. */
static PyObject *
call_python(PyObject *callable, PyObject *const *args, size_t nargs, PyObject *kwnames)
{
    PyObject *result = PyObject_Vectorcall(callable, args, nargs, kwnames);
    if (!PyCFunction_CheckExact(callable)
        && !(PyType_Check(callable)
             && PyType_HasFeature((PyTypeObject *)callable, Py_TPFLAGS_IMMUTABLETYPE)))
        new_epoch();
    return result;
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
lemire_draw(Core *c, PyObject *rng, PyObject *low_o, PyObject *high_o, long long *out)
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
    if ((bit_generator = get_attr(c, rng, N_bit_generator)) == NULL)
        return -1;
    if ((capsule = get_attr(c, bit_generator, N_capsule)) != NULL
        && (bitgen = PyCapsule_GetPointer(capsule, "BitGenerator")) != NULL
        && (lock = get_attr(c, bit_generator, N_lock)) != NULL) {
        PyObject *args[2] = {lock, Py_False};
        if ((held = call_method(c, N_acquire, args, 2, NULL)) != NULL) {
            status = 0;
            if (held == Py_True) {
                *out = low + (long long)bounded_lemire(bitgen, (uint32_t)width);
                status = call_void(c, N_release, &lock, 1) < 0 ? -1 : 1;
            }
        }
    }
    Py_XDECREF(held);
    Py_XDECREF(lock);
    Py_XDECREF(capsule);
    Py_DECREF(bit_generator);
    return status;
}

/* `int(rng.integers(low, high))`: a new int (`c`: the core drawing, or
 * NULL). */
static PyObject *
bounded_draw(Core *c, PyObject *rng, PyObject *low, PyObject *high)
{
    PyObject *args[3] = {rng, low, high}, *drawn, *as_int;
    long long value;
    int status = lemire_draw(c, rng, low, high, &value);
    if (status != 0)
        return status < 0 ? NULL : PyLong_FromLongLong(value);
    if ((drawn = call_method(c, N_integers, args, 3, NULL)) == NULL)
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
    return bounded_draw(NULL, args[0], args[1], args[2]);
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
/* `Packet`'s field offsets, its defaulted fields' offsets and whether it
 * holds the stock `__init__`, for the type version it has now: each field
 * must be a writable object slot (`packet_slots`), and a packet is built here
 * only if every defaulted field is one too (`defaults` -1 otherwise).
 * `stock["packet_defaults"]` is `None`, or the names and then the defaults of
 * the fields after the five `generate` passes, in field order.  0, -1 on
 * error. */
static int
bind_packet(Core *c)
{
    PyTypeObject *type = c->packet_type;
    PyObject *layout = L(c, packet_defaults), *names;
    cache_entry scratch, *e;
    Py_ssize_t i, n;
    int on;
    c->packet_tag = 0;
    c->packet_slots = 0;
    c->defaults = -1;
    if (!tag_valid(type) && assign_tag(type) <= 0)
        return PyErr_Occurred() ? -1 : 0; /* no tag to bind under */
    for (i = 0; i < N_FIELDS; i++) {
        if ((e = lookup(type, name_of[FIELD_NAME(i)], NULL, &scratch)) == NULL)
            return -1;
        if (e->kind != E_SLOT)
            break;
        c->offset[i] = e->offset;
    }
    c->packet_slots = i == N_FIELDS;
    if (c->packet_slots && layout != Py_None) {
        names = PyTuple_GET_ITEM(layout, 0);
        n = PyTuple_GET_SIZE(names);
        for (i = 0; i < n; i++) {
            if ((e = lookup(type, PyTuple_GET_ITEM(names, i), NULL, &scratch)) == NULL)
                return -1;
            if (e->kind != E_SLOT)
                break;
            c->default_offset[i] = e->offset;
        }
        if (i == n)
            c->defaults = n;
    }
    if ((on = mro_resolves(type, name_of[N___init__], NULL, STOCK(c, Packet, __init__))) < 0)
        return -1;
    c->packet_init = on;
    /* The tag last, read again: a walk that ran Python leaves it unbound. */
    c->packet_tag = tag_valid(type) ? type->tp_version_tag : 0;
    return 0;
}

/* Whether `packet`'s fields are read at the slot offsets: it is exactly a
 * `Packet`, and the binding is current (rebound when the class changed).
 * 1 / 0, -1 on error. */
static inline int
packet_slots(Core *c, PyObject *packet)
{
    PyTypeObject *type = c->packet_type;
    if (!Py_IS_TYPE(packet, type))
        return 0;
    if ((!tag_valid(type) || type->tp_version_tag != c->packet_tag) && bind_packet(c) < 0)
        return -1;
    return c->packet_tag != 0 && c->packet_slots;
}

/* `packet.<f>`: a new reference. */
static PyObject *
pget(Core *c, PyObject *packet, int f)
{
    int on = packet_slots(c, packet);
    if (on > 0) {
        PyObject *value = *(PyObject **)((char *)packet + c->offset[f]);
        if (value != NULL)
            return Py_NewRef(value);
    }
    return on < 0 ? NULL : get_attr(c, packet, FIELD_NAME(f));
}

/* `packet.<f> = value`. */
static int
pset(Core *c, PyObject *packet, int f, PyObject *value)
{
    int on = packet_slots(c, packet);
    if (on > 0) {
        PyObject **slot = (PyObject **)((char *)packet + c->offset[f]), *old = *slot;
        *slot = Py_NewRef(value);
        Py_XDECREF(old);
        return 0;
    }
    return on < 0 ? -1 : set_attr(c, packet, FIELD_NAME(f), value);
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
/* `obj.<name n> += delta`. */
static int
attr_iadd(Core *c, PyObject *obj, int n, PyObject *delta)
{
    PyObject *value = get_attr(c, obj, n), *sum;
    int failed;
    if (value == NULL)
        return -1;
    sum = PyNumber_InPlaceAdd(value, delta);
    Py_DECREF(value);
    if (sum == NULL)
        return -1;
    failed = set_attr(c, obj, n, sum);
    Py_DECREF(sum);
    return failed;
}

/* ---------------------------------------------------------- routing hooks */
/* Each hook below resolves its name on the routing instance (`stock_hook`)
 * and runs the stock body it found (the Python function named in its
 * comment, statement for statement), or calls the hook by name with the
 * object engine's arguments `(view, port, vc, packet, ...)`.  A stock body
 * resolves its own method calls (`self.tracker.on_head`,
 * `self._maybe_count_partial`, ...) the same way at the point the Python
 * body makes them, and `super()` through the instance type's MRO before it
 * has changed anything. */

/* `args[0].<name n>(args)` by name, `args[1]` being the view of router
 * `rid`. */
static int
invoke_on_view(Core *c, int n, long rid, PyObject **args, size_t nargs)
{
    if ((args[1] = item(L(c, views), rid)) == NULL)
        return -1;
    return call_void(c, n, args, nargs);
}

/* ------------------------------------------------------- topology queries */
/* While the topology resolves a query's name to the stock function
 * `SoAEngine` handed over -- the base `Topology` one, or where a topology
 * has its own, that one -- the query is answered here from the function's
 * arithmetic or tables; otherwise it is the call by name, made where and as
 * often as the Python body makes it.  The routing's own topology is read
 * through the sizes, node map and tables bound with the core, while its
 * size properties are the stock ones (`sizes_stock`); a traffic pattern may
 * hold another instance, whose queries are calls by name and whose sizes
 * are read as attributes. */
enum query { Q_ROUTER_REGION, Q_NODE_REGION, Q_NODE_ROUTER };

static const int query_names[] = {N_router_region, N_node_region, N_node_router};
static const int query_stock[] = {
    S_Topology_router_region, S_Topology_node_region, S_Topology_node_router};

/* `topology.<name n>(x)` (or `(x, y)` where `nargs` is 2) by name, answered
 * as a long. */
static int
ask_by_name(Core *c, PyObject *topology, int n, long x, long y, size_t nargs, long *out)
{
    PyObject *x_o = PyLong_FromLong(x), *y_o = nargs > 1 ? PyLong_FromLong(y) : NULL;
    int failed = -1;
    if (x_o != NULL && (nargs < 2 || y_o != NULL)) {
        PyObject *args[3] = {topology, x_o, y_o};
        failed = call_long(c, n, args, 1 + nargs, out);
    }
    Py_XDECREF(y_o);
    Py_XDECREF(x_o);
    return failed;
}

/* The size properties in `enum size` order, and the stock ones of those
 * names. */
static const int size_names[N_SIZES] = {N_num_nodes, N_num_routers, N_num_regions,
                                        N_routers_per_region, N_nodes_per_router};
static const int size_slots[N_SIZES] = {S_Topology_num_nodes, S_Topology_num_routers,
                                        S_Topology_num_regions, S_Topology_routers_per_region,
                                        S_Topology_nodes_per_router};

/* Whether `topology` is the routing's own one, its sizes bound and its type
 * still resolving each size property to the stock one, whose values are
 * then the bound ones (properties are data descriptors: the instance cannot
 * shadow them).  Checked once per type version.  1 / 0, -1 on error. */
static int
sizes_stock(Core *c, PyObject *topology)
{
    PyTypeObject *type = Py_TYPE(topology);
    int z;
    if (!c->sizes || topology != L(c, topology))
        return 0;
    if (tag_valid(type) && type->tp_version_tag == c->sizes_tag)
        return 1;
    for (z = 0; z < N_SIZES; z++) {
        memo scratch, *e = type_part(c, type, size_names[z], &scratch);
        if (e == NULL)
            return -1;
        if (e->found != c->o[size_slots[z]])
            return 0;
    }
    c->sizes_tag = tag_valid(type) ? type->tp_version_tag : 0;
    return 1;
}

/* `topology.<size z>`: the value bound with the core while `sizes_stock`,
 * else the attribute. */
static int
topology_size(Core *c, PyObject *topology, enum size z, long *out)
{
    int on = sizes_stock(c, topology);
    if (on < 0)
        return -1;
    if (on) {
        *out = c->size[z];
        return 0;
    }
    return attr_long(c, topology, size_names[z], out);
}

/* `topology.<query>(x)` -- the routing's topology or another instance (a
 * traffic pattern's): the region of a router or a node, or a node's router.
 * The base bodies, `router // routers_per_region`,
 * `node // (num_nodes // num_regions)` and `_node_rid[node]`, over the
 * sizes and the node map bound with the core; on another instance, with
 * other sizes or for a node outside the map, the call by name. */
static int
ask_of(Core *c, PyObject *topology, enum query q, long x, long *out)
{
    PyObject *fn, *map = L(c, node_rid);
    int on;
    if (stock_hook(c, topology, query_names[q], &fn) < 0)
        return -1;
    if (fn == c->o[query_stock[q]] && (on = sizes_stock(c, topology)) != 0) {
        if (on < 0)
            return -1;
        if (q != Q_NODE_ROUTER) {
            *out = pydiv(x, q == Q_ROUTER_REGION ? c->size[Z_ROUTERS_PER_REGION]
                                                 : c->nodes_per_region);
            return 0;
        }
        if ((unsigned long)x < (unsigned long)PyTuple_GET_SIZE(map))
            return as_long(PyTuple_GET_ITEM(map, x), out);
    }
    return ask_by_name(c, topology, query_names[q], x, 0, 1, out);
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
    long a = c->size[Z_ROUTERS_PER_REGION], group = pydiv(rid, a), dst_group = pydiv(dst_router, a);
    long pos = pymod(rid, a), to = pymod(dst_router, a), offset;
    if (group != dst_group) {
        if (get_long(L(c, link_offsets), group * c->size[Z_NUM_REGIONS] + dst_group, &offset) < 0)
            return -1;
        to = pydiv(offset, c->df_h);
        if (to == pos) {
            *port = c->size[Z_NODES_PER_ROUTER] + a - 1 + pymod(offset, c->df_h);
            return 0;
        }
    }
    *port = c->size[Z_NODES_PER_ROUTER] + (to < pos ? to : to - 1);
    return 0;
}

/* `topology.minimal_output_port(rid, dst)` (`dst` a node) or, with
 * `to_router`, `topology.minimal_route_to_router(rid, dst)`: the base
 * bodies -- the ejection port at the node's router (`_node_rid`), else the
 * entry of the route table (of the router-target table, with `to_router`).
 * A route-table miss is filled by `_route_port`: the Dragonfly's here while
 * it is stock, any other by name; a miss of a router-target table of its
 * own by `_target_port` by name. */
static int
route(Core *c, long rid, long dst, int to_router, long *port)
{
    PyObject *topology = L(c, topology), *map = L(c, node_rid), *fn;
    PyObject *table = to_router ? L(c, target_table) : L(c, route_table);
    long dst_router = dst, R = c->size[Z_NUM_ROUTERS];
    int n = to_router ? N_minimal_route_to_router : N_minimal_output_port, on;
    Py_ssize_t key;
    if (stock_hook(c, topology, n, &fn) < 0)
        return -1;
    if (fn != (to_router ? STOCK(c, Topology, minimal_route_to_router)
                         : STOCK(c, Topology, minimal_output_port))
        || (on = sizes_stock(c, topology)) == 0)
        return ask_by_name(c, topology, n, rid, dst, 2, port);
    if (on < 0)
        return -1;
    if (!to_router) {
        if ((unsigned long)dst >= (unsigned long)PyTuple_GET_SIZE(map))
            return ask_by_name(c, topology, n, rid, dst, 2, port);
        if (as_long(PyTuple_GET_ITEM(map, dst), &dst_router) < 0)
            return -1;
        if (rid == dst_router) {
            *port = pymod(dst, c->size[Z_NODES_PER_ROUTER]);
            return 0;
        }
    }
    /* The diagonal raises, and an index outside the table is the body's to
     * answer. */
    key = (Py_ssize_t)rid * R + dst_router;
    if (rid == dst_router || (unsigned long)rid >= (unsigned long)R
        || (unsigned long)dst_router >= (unsigned long)R || key >= PyByteArray_GET_SIZE(table))
        return ask_by_name(c, topology, n, rid, dst, 2, port);
    *port = (unsigned char)PyByteArray_AS_STRING(table)[key];
    if (*port != 0xFF)
        return 0;
    if (table != L(c, route_table))
        on = ask_by_name(c, topology, N__target_port, rid, dst_router, 2, port);
    else if ((on = stock_hook(c, topology, N__route_port, &fn)) == 0)
        on = c->dragonfly && fn == STOCK(c, DragonflyTopology, _route_port)
                 ? df_route_port(c, rid, dst_router, port)
                 : ask_by_name(c, topology, N__route_port, rid, dst_router, 2, port);
    if (on < 0)
        return -1;
    /* A fill by name may have run Python: the table is held, its size is
     * read again. */
    if (key >= PyByteArray_GET_SIZE(table)) {
        PyErr_SetString(PyExc_IndexError, "bytearray index out of range");
        return -1;
    }
    if (*port < 0 || *port > 255) {
        PyErr_SetString(PyExc_ValueError, "byte must be in range(0, 256)");
        return -1;
    }
    PyByteArray_AS_STRING(table)[key] = (char)*port;
    return 0;
}

/* The peer table's "not read yet" and "no link" entries. */
#define PEER_UNSET (-1)
#define NO_LINK (-2)

/* `topology._link_peer(rid, port)` of the routing's topology (sizes bound):
 * the router `port` of `rid` links to (`NO_LINK`: none), from the peer
 * table; a miss is the body's, by name (it fills the entry from
 * `neighbor`), and so is a port outside the radix. */
static int
link_peer(Core *c, long rid, long port, long *peer)
{
    const long long *table = c->peers.buf;
    Py_ssize_t key = (Py_ssize_t)rid * c->radix + port;
    if ((unsigned long)port < (unsigned long)c->radix
        && (size_t)key < (size_t)c->peers.len / sizeof(long long) && table[key] != PEER_UNSET) {
        *peer = (long)table[key];
        return 0;
    }
    return ask_by_name(c, L(c, topology), N__link_peer, rid, port, 2, peer);
}

/* `topology.router_hops(a, b)` of the base `Topology`: the entry of the hop
 * memo, an unset one filled here by walking the router-target and peer
 * tables (`route(..., 1)`, `link_peer`) for at most `max_minimal_hops`
 * hops.  An unallocated memo, an index outside it, a walk that has not
 * arrived by then or that ends at `NO_LINK` are the body's, by name (it
 * allocates the memo, or raises). */
static int
hops(Core *c, long a, long b, long *out)
{
    PyObject *topology = L(c, topology), *table, *fn;
    long R = c->size[Z_NUM_ROUTERS], r = a, port, n;
    Py_ssize_t key = (Py_ssize_t)a * R + b;
    int on;
    if (stock_hook(c, topology, N_router_hops, &fn) < 0)
        return -1;
    if (fn == STOCK(c, Topology, router_hops) && (on = sizes_stock(c, topology)) != 0) {
        if (on < 0 || (table = get_attr(c, topology, N__hop_table)) == NULL)
            return -1;
        on = PyByteArray_Check(table) && (unsigned long)a < (unsigned long)R
             && (unsigned long)b < (unsigned long)R && key < PyByteArray_GET_SIZE(table);
        if (on && (*out = (unsigned char)PyByteArray_AS_STRING(table)[key]) == 0xFF) {
            /* The walk is the stock `minimal_router_path`; an override is
             * asked, by name, through `router_hops`. */
            on = stock_hook(c, topology, N_minimal_router_path, &fn) < 0
                     ? -1 : fn == STOCK(c, Topology, minimal_router_path);
            for (n = 0; on > 0 && r != b && r != NO_LINK && n < c->max_minimal_hops; n++)
                if (route(c, r, b, 1, &port) < 0 || link_peer(c, r, port, &r) < 0)
                    on = -1;
            /* A fill by name may have run Python: the memo's size is read
             * again. */
            if (on > 0 && (on = r == b && key < PyByteArray_GET_SIZE(table)))
                PyByteArray_AS_STRING(table)[key] = (char)(*out = n);
        }
        Py_DECREF(table);
        if (on)
            return on < 0 ? -1 : 0;
    }
    return ask_by_name(c, topology, N_router_hops, a, b, 2, out);
}

/* ----------------------------------------------------------- torus rings */
/* `_ring_info[port]` of a torus: its dimension, stride, ring length, the
 * coordinate whose outgoing hop wraps and the direction (`info`, borrowed
 * in `dim_o` / `dir_o`); 0 where the entry is `None`. */
static int
ring_of(Core *c, long port, long info[5], PyObject **dim_o, PyObject **dir_o)
{
    PyObject *entry = at(L(c, ring_info), port);
    int i;
    if (entry == NULL)
        return -1;
    if (entry == Py_None)
        return 0;
    if (expect_tuple(entry, 5, "a ring entry") < 0)
        return -1;
    for (i = 0; i < 5; i++)
        if (field_long(entry, i, &info[i]) < 0)
            return -1;
    if (info[1] <= 0 || info[2] <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return -1;
    }
    *dim_o = PyTuple_GET_ITEM(entry, 0);
    *dir_o = PyTuple_GET_ITEM(entry, 4);
    return 1;
}

/* `topology.ring_vc(head, rid, port)`: `2 * leg + crossed`, `crossed` when
 * the hop wraps or continues a traversal past its dateline. */
static int
ring_vc(Core *c, PyObject *head, long rid, PyObject *port_o, long *vc)
{
    PyObject *dim_o, *dir_o, *fn;
    long port, info[5], leg, ring_dim;
    int crossed;
    if (stock_hook(c, L(c, topology), N_ring_vc, &fn) < 0)
        return -1;
    if (L(c, ring_info) == Py_None || fn != STOCK(c, TorusTopology, ring_vc)) {
        PyObject *rid_o = PyLong_FromLong(rid);
        PyObject *args[4] = {L(c, topology), head, rid_o, port_o};
        int failed;
        if (rid_o == NULL)
            return -1;
        Py_INCREF(port_o); /* `ring_vc` runs Python */
        failed = call_long(c, N_ring_vc, args, 4, vc);
        Py_DECREF(port_o);
        Py_DECREF(rid_o);
        return failed;
    }
    if (as_long(port_o, &port) < 0)
        return -1;
    if ((crossed = ring_of(c, port, info, &dim_o, &dir_o)) <= 0) {
        if (crossed == 0)
            PyErr_SetString(PyExc_TypeError, "cannot unpack non-iterable NoneType object");
        return -1;
    }
    crossed = pymod(pydiv(rid, info[1]), info[2]) == info[3];
    if (!crossed) {
        if (pget_long(c, head, F_ring_dim, &ring_dim) < 0)
            return -1;
        if (ring_dim == info[0] && (crossed = ptruth(c, head, F_ring_crossed)) < 0)
            return -1;
    }
    if (pget_long(c, head, F_vc_leg, &leg) < 0)
        return -1;
    *vc = 2 * leg + crossed;
    return 0;
}

/* `topology.commit_ring_hop(packet, rid, port)` after a granted hop: a new
 * dimension starts a fresh traversal, a wrap hop marks it crossed, and the
 * traversal's direction is recorded. */
static int
commit_ring(Core *c, PyObject *topology, PyObject *packet, long rid, PyObject *port_o)
{
    PyObject *dim_o, *dir_o, *fn;
    long port, info[5], ring_dim;
    int on, wrap;
    if (stock_hook(c, topology, N_commit_ring_hop, &fn) < 0)
        return -1;
    if (topology != L(c, topology) || L(c, ring_info) == Py_None
        || fn != STOCK(c, TorusTopology, commit_ring_hop)) {
        PyObject *rid_o = PyLong_FromLong(rid);
        PyObject *args[4] = {topology, packet, rid_o, port_o};
        if (rid_o == NULL)
            return -1;
        on = call_void(c, N_commit_ring_hop, args, 4);
        Py_DECREF(rid_o);
        return on;
    }
    if (as_long(port_o, &port) < 0 || (on = ring_of(c, port, info, &dim_o, &dir_o)) < 0)
        return -1;
    if (on == 0) /* ejection: no ring state to track */
        return 0;
    wrap = pymod(pydiv(rid, info[1]), info[2]) == info[3];
    if (pget_long(c, packet, F_ring_dim, &ring_dim) < 0)
        return -1;
    if (ring_dim != info[0]) {
        if (pset(c, packet, F_ring_dim, dim_o) < 0
            || pset(c, packet, F_ring_crossed, wrap ? Py_True : Py_False) < 0)
            return -1;
    }
    else if (wrap && pset(c, packet, F_ring_crossed, Py_True) < 0)
        return -1;
    return pset(c, packet, F_ring_dir, dir_o);
}

/* ---------------------------------------------- properties and draws */
/* `bool(obj.<name n>)`: 1 / 0, -1 on error. */
static int
ptruth_attr(Core *c, PyObject *obj, int n)
{
    PyObject *value = get_attr(c, obj, n);
    int on;
    if (value == NULL)
        return -1;
    on = truth(value);
    Py_DECREF(value);
    return on;
}

/* `draws.integers(rng, low, high)` (a new reference): `bounded_draw` while
 * the module holds this module's `integers`, else a call of what it holds. */
static PyObject *
draw_between(Core *c, PyObject *rng, PyObject *low, PyObject *high)
{
    PyObject *integers = get_attr(c, L(c, draws), N_integers), *drawn;
    PyObject *args[3] = {rng, low, high};
    if (integers == NULL)
        return NULL;
    drawn = PyCFunction_Check(integers)
                    && PyCFunction_GET_FUNCTION(integers)
                           == (PyCFunction)(void (*)(void))module_integers
                ? bounded_draw(c, rng, low, high)
                : call_python(integers, args, 3, NULL);
    Py_DECREF(integers);
    return drawn;
}

/* `ValiantRouting.on_packet_arrival`: at its intermediate router a packet
 * starts its second leg. */
static int
valiant_reached(Core *c, long rid, PyObject *packet)
{
    PyObject *via, *rid_o = NULL, *minus_one;
    int on;
    if ((via = pget(c, packet, F_valiant_router)) == NULL)
        return -1;
    on = via == Py_None ? 0
         : (rid_o = PyLong_FromLong(rid)) == NULL ? -1
         : PyObject_RichCompareBool(via, rid_o, Py_EQ);
    Py_XDECREF(rid_o);
    Py_DECREF(via);
    if (on <= 0)
        return on;
    if ((minus_one = PyLong_FromLong(-1)) == NULL)
        return -1;
    on = pset(c, packet, F_valiant_router, Py_None) < 0 || pset(c, packet, F_vc_leg, one) < 0
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
    PyObject *routing = c->o[S_routing], *group_o, *dst_o, *offset = NULL, *fn;
    if (stock_hook(c, routing, N_link_offset_for_destination, &fn) < 0)
        return NULL;
    if (c->dragonfly && fn == STOCK(c, ECtNRouting, link_offset_for_destination)) {
        offset = item(L(c, link_offsets), group * c->size[Z_NUM_REGIONS] + dst_group);
        Py_XINCREF(offset);
        return offset;
    }
    group_o = PyLong_FromLong(group);
    dst_o = PyLong_FromLong(dst_group);
    if (group_o != NULL && dst_o != NULL) {
        PyObject *args[3] = {routing, group_o, dst_o};
        offset = call_method(c, N_link_offset_for_destination, args, 3, NULL);
    }
    Py_XDECREF(dst_o);
    Py_XDECREF(group_o);
    return offset;
}

/* `self._maybe_count_partial(router, packet)` of ECtN's stock hooks: a
 * packet bound for another group counts on its minimal global link. */
static int
count_partial(Core *c, long rid, PyObject *packet)
{
    PyObject *routing = c->o[S_routing], *offset, *counts, *fn;
    long group, dst, dst_group;
    int failed, same;
    if (stock_hook(c, routing, N__maybe_count_partial, &fn) < 0)
        return -1;
    if (fn != STOCK(c, ECtNRouting, _maybe_count_partial)) {
        PyObject *args[3] = {routing, NULL, packet};
        return invoke_on_view(c, N__maybe_count_partial, rid, args, 3);
    }
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
        && (counts = get_attr(c, counters, N_counts)) != NULL) {
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
    PyObject *port, *counters, *counts = NULL, *fn;
    int failed = -1;
    if ((port = pget(c, packet, F_contention_port)) == NULL)
        return -1;
    if (port == Py_None) {
        Py_DECREF(port);
        return 0;
    }
    if ((counters = item(L(c, counters), rid)) == NULL
        || stock_hook(c, counters, N_decrement, &fn) < 0)
        goto done;
    if (fn != STOCK(c, ContentionCounters, decrement)) {
        PyObject *args[2] = {counters, port};
        Py_INCREF(counters);
        failed = call_void(c, N_decrement, args, 2);
        Py_DECREF(counters);
    }
    else {
        long at, value;
        if ((counts = get_attr(c, counters, N_counts)) == NULL
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
    PyObject *tracker = L(c, tracker), *fn;
    int n = leave ? N_on_leave : N_on_head;
    if (stock_hook(c, tracker, n, &fn) < 0)
        return -1;
    if (fn != (leave ? STOCK(c, ContentionTracker, on_leave)
                                   : STOCK(c, ContentionTracker, on_head))) {
        PyObject *args[3] = {tracker, NULL, packet};
        return invoke_on_view(c, n, rid, args, 3);
    }
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
arrival_hook(Core *c, long rid, long port, long vc, PyObject *packet, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *fn, *port_o, *vc_o;
    int on;
    if (stock_hook(c, routing, N_on_packet_arrival, &fn) < 0)
        return -1;
    if (fn == STOCK(c, ValiantRouting, on_packet_arrival))
        return valiant_reached(c, rid, packet);
    if (fn == STOCK(c, ECtNRouting, on_packet_arrival) && tracked(c, 1)) {
        if ((on = port_is(c, S_kind_is_global, port)) < 0)
            return -1;
        return on ? count_partial(c, rid, packet) : 0;
    }
    if ((port_o = PyLong_FromLong(port)) == NULL)
        return -1;
    if ((vc_o = PyLong_FromLong(vc)) != NULL) {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        on = invoke_on_view(c, N_on_packet_arrival, rid, args, 6);
        Py_DECREF(vc_o);
    }
    Py_DECREF(port_o);
    return vc_o == NULL ? -1 : on;
}

/* `routing.on_packet_head(view, port, vc, packet, cycle)`. */
static int
head_hook(Core *c, long rid, long port, PyObject *port_o, PyObject *vc_o, PyObject *packet,
          PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *fn;
    int on = 0;
    if (stock_hook(c, routing, N_on_packet_head, &fn) < 0)
        return -1;
    if (fn == STOCK(c, BaseContentionRouting, on_packet_head) && tracked(c, 0))
        return track(c, rid, packet, 0);
    if (fn == STOCK(c, ECtNRouting, on_packet_head) && tracked(c, 1)
        && (on = super_is(routing, L(c, ECtNRouting), N_on_packet_head,
                          STOCK(c, BaseContentionRouting, on_packet_head))) > 0) {
        if (track(c, rid, packet, 0) < 0 || (on = port_is(c, S_kind_is_injection, port)) < 0)
            return -1;
        return on ? count_partial(c, rid, packet) : 0;
    }
    if (on < 0)
        return -1;
    {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        return invoke_on_view(c, N_on_packet_head, rid, args, 6);
    }
}

/* `routing.on_packet_leave_input(view, port, vc, packet, cycle)`. */
static int
leave_hook(Core *c, long rid, PyObject *port_o, PyObject *vc_o, PyObject *packet,
           PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *fn;
    int on = 0;
    if (stock_hook(c, routing, N_on_packet_leave_input, &fn) < 0)
        return -1;
    if (fn == STOCK(c, BaseContentionRouting, on_packet_leave_input)
        && tracked(c, 0))
        return track(c, rid, packet, 1);
    if (fn == STOCK(c, ECtNRouting, on_packet_leave_input) && tracked(c, 1)
        && (on = super_is(routing, L(c, ECtNRouting), N_on_packet_leave_input,
                          STOCK(c, BaseContentionRouting, on_packet_leave_input))) > 0)
        return track(c, rid, packet, 1) < 0 ? -1 : partial_down(c, rid, packet);
    if (on < 0)
        return -1;
    {
        PyObject *args[6] = {routing, NULL, port_o, vc_o, packet, cycle_o};
        return invoke_on_view(c, N_on_packet_leave_input, rid, args, 6);
    }
}

/* `RoutingAlgorithm.on_grant`: commit what the decision (an exact
 * `RoutingDecision`, read by field position) says to the packet. */
static int
commit_decision(Core *c, long rid, PyObject *port_o, PyObject *vc_o, PyObject *packet,
                PyObject *decision, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *sub;
    long out_port;
    int on;
#define FIELD(n) PyTuple_GET_ITEM(decision, D_##n)
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
    if ((on = truth(FIELD(nonminimal_global))) < 0
        || (on && pset(c, packet, F_globally_misrouted, Py_True) < 0)
        || (on = truth(FIELD(nonminimal_local))) < 0
        || (on && pset(c, packet, F_locally_misrouted, Py_True) < 0)
        || (on = truth(FIELD(set_fault_mode))) < 0)
        return -1;
    if (on) {
        PyObject *args[3] = {routing, packet, decision};
        if (call_void(c, N__commit_fault_hop, args, 3) < 0)
            return -1;
    }
    if ((sub = get_attr(c, routing, N__dateline)) == NULL)
        return -1;
    on = sub != Py_None && commit_ring(c, sub, packet, rid, FIELD(output_port)) < 0;
    Py_DECREF(sub);
    if (on)
        return -1;
    if ((sub = get_attr(c, routing, N__obs)) == NULL)
        return -1;
    on = 0;
    if (sub != Py_None) {
        PyObject *view = item(L(c, views), rid);
        PyObject *args[8] = {sub, routing, view, port_o, vc_o, packet, decision, cycle_o};
        on = view == NULL || call_void(c, N_record_grant, args, 8) < 0;
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
    PyObject *routing = c->o[S_routing], *fn;
    if (stock_hook(c, routing, N_on_grant, &fn) < 0)
        return -1;
    if (fn == STOCK(c, RoutingAlgorithm, on_grant)
        && Py_IS_TYPE(decision, (PyTypeObject *)L(c, RoutingDecision)))
        return commit_decision(c, rid, port_o, vc_o, packet, decision, cycle_o);
    {
        PyObject *args[7] = {routing, NULL, port_o, vc_o, packet, decision, cycle_o};
        return invoke_on_view(c, N_on_grant, rid, args, 7);
    }
}

/* `packet.record_hop(is_global=...)`. */
static int
record_hop(Core *c, PyObject *packet, PyObject *is_global)
{
    PyObject *fn, *result;
    int on;
    if (stock_hook(c, packet, N_record_hop, &fn) < 0)
        return -1;
    if (fn != STOCK(c, Packet, record_hop)) {
        PyObject *args[2] = {packet, is_global};
        if ((result = call_method(c, N_record_hop, args, 1, kw_is_global)) == NULL)
            return -1;
        Py_DECREF(result);
        return 0;
    }
    if (pincr(c, packet, F_hops) < 0 || (on = truth(is_global)) < 0)
        return -1;
    if (on)
        return pincr(c, packet, F_global_hops) < 0
               || pset(c, packet, F_local_hops_in_group, zero) < 0 ? -1 : 0;
    return pincr(c, packet, F_local_hops_in_group);
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
    else if ((active = get_attr(c, c->o[S_st], N_active)) == NULL)
        return -1;
    failed = expect_list(active, "st.active") < 0 || append_long(active, rid) < 0
             || set_attr(c, c->o[S_st], N_unsorted, Py_True) < 0;
    Py_DECREF(active);
    return failed ? -1 : 0;
}

/* ---------------------------------------------------------------- credits */
/* `Router.begin_cycle`, credit half: the returns due this cycle. */
static int
apply_credits(Core *c, const due_list *due)
{
    Py_ssize_t i;
    for (i = 0; i < due->n; i++) {
        const long *f = due->items[i].f;
        long rid = f[0], g = f[1], q = f[2], phits = f[3], have, occupied, most;
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

/* One link arrival `(g, vc)` of its packet. */
static int
receive(Core *c, const event *e, PyObject *cycle_o, PyObject *active)
{
    long g = e->f[0], vc = e->f[1], rid = g / c->P, port = g % c->P, size;
    if (pget_long(c, e->packet, F_size_phits, &size) < 0
        || push(c, rid, port, vc, e->packet, size, active) < 0)
        return -1;
    return c->notify_arrival ? arrival_hook(c, rid, port, vc, e->packet, cycle_o) : 0;
}

/* `Router.begin_cycle`, arrival half: the link arrivals due this cycle. */
static int
apply_arrivals(Core *c, due_list *due, PyObject *cycle_o, PyObject *active)
{
    Py_ssize_t i;
    /* (router, port) order -- the order the object engine's per-router
     * `begin_cycle` calls fire `on_packet_arrival` in.  A link completes at
     * most one packet per cycle; ties keep their push order. */
    due_sort(due, 0);
    for (i = 0; i < due->n; i++)
        if (receive(c, &due->items[i], cycle_o, active) < 0)
            return -1;
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
    PyObject *dq, *packet, *keys;
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
        || pget_long(c, packet, F_size_phits, &size) < 0 || get_col(c, in_free, q, &free_phits) < 0
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
    if (get_col(c, up_g, g, &up) < 0)
        goto error;
    if (up >= 0) {
        long latency, up_rid;
        event *credit;
        if (get_col(c, up_lat, g, &latency) < 0 || get_col(c, up_rid, g, &up_rid) < 0
            || (credit = cal_push(&c->cal[CAL_CREDIT], cycle + latency, NULL)) == NULL)
            goto error;
        credit->f[0] = up_rid;
        credit->f[1] = up;
        credit->f[2] = up * c->V + vc;
        credit->f[3] = size;
    }
    if (c->notify_leave && leave_hook(c, rid, port_o, vc_o, packet, cycle_o) < 0)
        goto error;
    release_row(c, q);
    return packet;
error:
    Py_DECREF(packet);
    return NULL;
}

/* ----------------------------------------------------------------- commit */
static PyObject *pick_decision(Core *c, const request *req);

/* `Router._commit_grant`, and the booking of what the grant decides: the
 * packet's release and its downstream arrival.  A pick's decision is made
 * here, for the granted request only. */
static int
commit(Core *c, long rid, const request *req, PyObject *cycle_o, long cycle)
{
    PyObject *in_port_o, *in_vc_o, *decision, *packet = NULL, *vc_o = NULL;
    long in_port = req->in_port, in_vc = req->in_vc, out_port = req->out_port, size = req->size;
    long og = rid * c->P + out_port, cq = og * c->V + req->vc, vc;
    long free_phits, committed, have, occupied, ready, depart, factor, done, down;
    event *e;
    int flag, failed = -1;
    decision = req->decision != NULL ? Py_NewRef(req->decision) : pick_decision(c, req);
    in_port_o = PyLong_FromLong(in_port);
    in_vc_o = PyLong_FromLong(in_vc);
    if (decision == NULL || in_port_o == NULL || in_vc_o == NULL)
        goto done;
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
           : get_attr(c, decision, N_vc);
    if (vc_o == NULL || as_long(vc_o, &vc) < 0 || pset(c, packet, F_current_vc, vc_o) < 0
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
         * is still busy: a marker there lets the warp horizon see it and
         * keeps `cycles_skipped` equal. */
        if ((e = cal_push(&c->cal[CAL_RELEASE], ready, NULL)) == NULL)
            goto done;
        e->f[0] = -1;
    }
    else
        depart = ready;
    if (get_col(c, ser_fac, og, &factor) < 0)
        goto done;
    done = depart + size * factor;
    if (set_col(c, link_booked, og, done) < 0 || get_col(c, down_g, og, &down) < 0)
        goto done;
    if (down >= 0) {
        long latency;
        if (get_col(c, link_lat, og, &latency) < 0
            || (e = cal_push(&c->cal[CAL_ARRIVAL], done + latency, packet)) == NULL)
            goto done;
        e->f[0] = down;
        e->f[1] = vc;
    }
    /* Only an ejection's release carries its packet. */
    if ((e = cal_push(&c->cal[CAL_RELEASE], depart, down >= 0 ? NULL : packet)) == NULL)
        goto done;
    e->f[0] = og;
    e->f[1] = size;
    e->f[2] = done;
    failed = 0;
done:
    Py_XDECREF(vc_o);
    Py_XDECREF(packet);
    Py_XDECREF(in_vc_o);
    Py_XDECREF(in_port_o);
    Py_XDECREF(decision);
    return failed;
}

/* ---------------------------------------------------------------- release */
/* What is left of `Router.transmit`: the releases of router `rid`, which
 * start at `due->items[i]` -- each a packet starting on the wire this cycle;
 * returns the index of the next router's (-1 on error). */
static Py_ssize_t
release(Core *c, const due_list *due, Py_ssize_t i, long rid)
{
    long limit = rid * c->P + c->P;
    for (; i < due->n && due->items[i].f[0] < limit; i++) {
        const event *e = &due->items[i];
        long g = e->f[0], size = e->f[1], committed, free_phits;
        if (get_col(c, out_committed, g, &committed) < 0
            || set_col(c, out_committed, g, committed - size) < 0
            || get_col(c, out_free, g, &free_phits) < 0
            || set_col(c, out_free, g, free_phits + size) < 0
            || set_col(c, link_busy, g, e->f[2]) < 0)
            return -1;
        if (e->packet != NULL) {
            /* Only now, not at the grant: `Packet.delivered` must not read
             * true for a packet still inside the router. */
            PyObject *done = PyLong_FromLong(e->f[2]);
            int failed = done == NULL || pset(c, e->packet, F_delivered_cycle, done) < 0
                         || PyList_Append(c->o[S_dlv], e->packet) < 0;
            Py_XDECREF(done);
            if (failed)
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
 * requests: the indices of the granted ones go to `grants` in grant order;
 * returns how many, -1 on error. */
static Py_ssize_t
alloc_round(Core *c, long rid, long base, Py_ssize_t n, const request *reqs, Py_ssize_t *grants)
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
            if (reqs[i].in_port == reqs[j].in_port || reqs[i].out_port == reqs[j].out_port) {
                distinct = 0;
                break;
            }
    if (distinct) {
        /* Nothing to arbitrate: every request wins, the pointers rotate. */
        for (i = 0; i < n; i++) {
            if (set_col(c, in_ptr, base + reqs[i].in_port, pymod(reqs[i].in_vc + 1, nvc)) < 0
                || set_col(c, out_ptr, base + reqs[i].out_port, pymod(reqs[i].in_port + 1, P)) < 0)
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
        if (get_col(c, in_ptr, base + reqs[i].in_port, &pointer) < 0)
            goto error;
        for (j = i; j < n; j++) {
            long distance;
            if (reqs[j].in_port != reqs[i].in_port)
                continue;
            seen[j] = 1;
            if (reqs[j].in_vc < 0 || reqs[j].in_vc >= nvc)
                continue;
            distance = reqs[j].in_vc - pointer;
            if (distance < 0)
                distance += nvc;
            if (distance < best_distance || (best >= 0 && reqs[j].in_vc == reqs[best].in_vc)) {
                best_distance = distance;
                best = j;
            }
        }
        if (best < 0)
            continue;
        if (set_col(c, in_ptr, base + reqs[i].in_port, pymod(reqs[best].in_vc + 1, nvc)) < 0)
            goto error;
        winners[num_winners++] = best;
    }
    /* Output stage: per output port, in first-proposal order, the input
     * port closest after the port's pointer. */
    memset(seen, 0, (size_t)num_winners);
    for (i = 0; i < num_winners; i++) {
        Py_ssize_t best = -1;
        long best_distance = P, port = reqs[winners[i]].out_port;
        if (seen[i])
            continue;
        if (get_col(c, out_ptr, base + port, &pointer) < 0)
            goto error;
        for (j = i; j < num_winners; j++) {
            long client = reqs[winners[j]].in_port, distance;
            if (reqs[winners[j]].out_port != port)
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
        if (set_col(c, out_ptr, base + port, pymod(reqs[best].in_port + 1, P)) < 0)
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
/* A gate row answers each round with its fixed (minimal) request unless
 * the mechanism's trigger picks a candidate.  The trigger is
 * `AdaptiveInTransitRouting.choose_*` over the flat state, reading the
 * signals the mechanism declares; each pick is one
 * `draws.integers(routing.rng, 0, n)` (`bounded_draw`), exactly where the
 * object model's `select_output` draws. */

/* `RoutingDecision(output_port=port, vc=vc, ...)`: a tuple of the class
 * with the fields in order, as the class's `__new__` makes it. */
static PyObject *
new_decision(Core *c, PyObject *port, PyObject *vc, int nonminimal_global,
             int nonminimal_local, int must_misroute_global)
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
    PyTuple_SET_ITEM(decision, D_set_must_misroute_global,
                     Py_NewRef(must_misroute_global ? Py_True : Py_False));
    PyTuple_SET_ITEM(decision, D_set_fault_mode, Py_NewRef(Py_False));
    return decision;
}

/* `draws.integers(routing.rng, 0, n)` as an index into a list of `n`. */
static int
draw(Core *c, Py_ssize_t n, Py_ssize_t *index)
{
    PyObject *rng = get_attr(c, c->o[S_routing], N_rng), *n_o = NULL, *drawn = NULL;
    Py_ssize_t i = -1;
    if (rng != NULL && (n_o = PyLong_FromSsize_t(n)) != NULL
        && (drawn = bounded_draw(c, rng, zero, n_o)) != NULL)
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

/* A row's candidates in order: a list as it is, or a view of a router's
 * shared candidate tuple -- its global ports with their target group before
 * `num_global`, then its local ports -- from `first` on, skipping in place
 * what `global_candidates` / `local_candidates` leave out:
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
walk_open(Core *c, walk *w, const row *r, long rid, int globals_only)
{
    w->globals_only = globals_only;
    w->next = w->split = 0;
    w->minimal = r->minimal;
    w->dst_group = w->group = 0;
    w->seq = r->candidates;
    w->view = r->view;
    if (!w->view) {
        if (!PyList_Check(w->seq)) {
            PyErr_Format(PyExc_TypeError, "a candidate list must be a list, got %R", w->seq);
            return -1;
        }
        w->end = PyList_GET_SIZE(w->seq);
        return 0;
    }
    if (!PyTuple_Check(w->seq) || c->rpg <= 0) {
        PyErr_Format(PyExc_TypeError, "a candidate view must hold a candidate tuple, got %R",
                     w->seq);
        return -1;
    }
    w->dst_group = r->dst_group;
    w->end = PyTuple_GET_SIZE(w->seq);
    w->split = c->num_global < w->end ? c->num_global : w->end;
    if (!r->proxy || globals_only)
        w->end = w->split;
    if (r->first > 0)
        w->next = r->first < w->end ? r->first : w->end;
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
pick(Core *c, long rid, const row *r, int globals_only, enum signal signal, PyObject *values,
     long offset, double limit, PyObject **chosen)
{
    Py_ssize_t stack[STACK_ITEMS], *kept = stack, num_kept = 0, index, drawn;
    PyObject *candidate;
    walk w;
    int found = -1, more;
    if (walk_open(c, &w, r, rid, globals_only) < 0)
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
 * the candidates of gate row `r` of router `rid`; `*counts` caches the
 * router's counter array.  As `pick`. */
static int
choose(Core *c, long rid, long base, const row *r, PyObject **counts, PyObject **chosen)
{
    long value, minimal = r->minimal;
    int found;
    if (!c->signals) {
        PyErr_SetString(PyExc_ValueError, "a gate row, but the mechanism has no trigger");
        return -1;
    }
    if (c->signals & READS_COUNTERS) {
        if (*counts == NULL) {
            PyObject *counters = item(L(c, counters), rid);
            if (counters == NULL || (*counts = get_attr(c, counters, N_counts)) == NULL
                || expect_list(*counts, "a counter array") < 0)
                return -1;
        }
        if (get_long(*counts, minimal, &value) < 0)
            return -1;
        if ((double)value > c->counter_threshold
            && (found = pick(c, rid, r, 0, COUNTER, *counts, 0, c->counter_threshold,
                             chosen)) != 0)
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
    return pick(c, rid, r, 0, OCCUPANCY, NULL, base, c->occupancy_ratio * (double)value, chosen);
}

/* The global trigger: the combined arrays over the global candidates first
 * where the row carries ECtN's injection-side constants, then `choose`. */
static int
choose_global(Core *c, long rid, long base, const row *r, PyObject **counts, PyObject **chosen)
{
    if (r->ectn) {
        PyObject *combined, *group_o;
        long load;
        int found;
        if (!PyDict_Check(L(c, combined))) {
            PyErr_SetString(PyExc_TypeError, "ECtN's combined arrays must be a dict");
            return -1;
        }
        if ((group_o = PyLong_FromLong(r->ectn_group)) == NULL)
            return -1;
        combined = PyDict_GetItemWithError(L(c, combined), group_o);
        if (combined == NULL && !PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, group_o);
        Py_DECREF(group_o);
        if (combined == NULL || expect_list(combined, "an ECtN combined array") < 0
            || get_long(combined, r->ectn_min_offset, &load) < 0)
            return -1;
        if ((double)load > c->combined_threshold) {
            Py_INCREF(combined); /* the draw may run Python */
            found = pick(c, rid, r, 1, COMBINED, combined, r->ectn_base, c->combined_threshold,
                         chosen);
            Py_DECREF(combined);
            if (found != 0)
                return found;
        }
    }
    return choose(c, rid, base, r, counts, chosen);
}

/* `req`'s fixed request: `r`'s (0: it makes none). */
static int
fixed_request(const row *r, request *req)
{
    if (r->decision == NULL)
        return 0;
    req->out_port = r->out_port;
    req->vc = r->vc;
    req->size = r->size;
    req->decision = Py_NewRef(r->decision);
    return 1;
}

/* One allocation round's request of gate row `r` (a copy whose references
 * the caller holds: the trigger's draw may run Python) into `req`: the
 * fixed request, or the candidate the trigger picks, with the VC of its
 * hop.  1, 0 for no request, -1 on error. */
static int
gate_request(Core *c, long rid, long base, const row *r, PyObject **counts, request *req)
{
    PyObject *chosen = NULL;
    int found;
    if (r->kind == ROW_LOCAL)
        found = choose(c, rid, base, r, counts, &chosen);
    else {
        found = choose_global(c, rid, base, r, counts, &chosen);
        /* The committed proxy step leaves the group in any case. */
        if (found == 0 && r->kind == ROW_FORCED)
            found = pick(c, rid, r, 0, ANY, NULL, 0, 0.0, &chosen);
    }
    if (found <= 0)
        return found < 0 ? -1 : fixed_request(r, req);
    if (field_long(chosen, 0, &req->out_port) < 0 || field(chosen, 2) == NULL) {
        Py_DECREF(chosen);
        return -1;
    }
    if (r->kind == ROW_LOCAL) {
        req->pick = PICK_LOCAL;
        req->vc = r->local_vc;
    }
    else if (r->kind == ROW_FORCED || PyTuple_GET_ITEM(chosen, 1) == L(c, GLOBAL)) {
        /* Forced candidates are global links only (no local proxy). */
        req->pick = PICK_GLOBAL;
        req->vc = r->global_vc;
    }
    else {
        req->pick = PICK_PROXY;
        req->vc = r->local_vc;
    }
    req->size = r->size;
    req->chosen = chosen;
    return 1;
}

/* The decision of a granted pick (a new reference). */
static PyObject *
pick_decision(Core *c, const request *req)
{
    PyObject *port_o = PyTuple_GET_ITEM(req->chosen, 0), *vc_o = PyLong_FromLong(req->vc);
    PyObject *decision;
    if (vc_o == NULL)
        return NULL;
    decision = new_decision(c, port_o, vc_o, req->pick == PICK_GLOBAL, req->pick == PICK_LOCAL,
                            req->pick == PICK_PROXY);
    Py_DECREF(vc_o);
    return decision;
}

/* --------------------------------------------------------------- injection */
/* `SoAEngine._inject`: a node's packet enters its router with the stock
 * `on_inject` of `RoutingAlgorithm`, `ValiantRouting` or `UGALRouting` (and
 * UGAL's / PB's source-adaptive trigger) answered here, under the rule of
 * the hooks.  `random_intermediate_router` draws: always by name. */

/* `topology.valiant_intermediate_router(rid, rng)`, stock on the routing's
 * own topology: one draw over the Valiant window, skipping the source region
 * where the window says so. */
static PyObject *
valiant_router(Core *c, PyObject *topology, long rid, PyObject *rid_o, PyObject *rng)
{
    PyObject *args[3] = {topology, rid_o, rng}, *span, *drawn, *fn;
    long first = c->valiant_window[0], width = c->valiant_window[1];
    long skip = c->valiant_window[2], rpr = c->size[Z_ROUTERS_PER_REGION], choice, region;
    int on;
    if (stock_hook(c, topology, N_valiant_intermediate_router, &fn) < 0)
        return NULL;
    if (fn != STOCK(c, Topology, valiant_intermediate_router)
        || (on = sizes_stock(c, topology)) == 0)
        return call_method(c, N_valiant_intermediate_router, args, 3, NULL);
    if (on < 0 || (span = PyLong_FromLong((c->size[Z_NUM_REGIONS] - skip) * width)) == NULL)
        return NULL;
    drawn = draw_between(c, rng, zero, span);
    Py_DECREF(span);
    if (drawn == NULL || as_long(drawn, &choice) < 0) {
        Py_XDECREF(drawn);
        return NULL;
    }
    Py_DECREF(drawn);
    /* `region, position = divmod(choice, width)` */
    region = pydiv(choice, width);
    if (skip && region >= pydiv(rid, rpr))
        region += 1;
    return PyLong_FromLong(region * rpr + first + pymod(choice, width));
}

/* `self.random_intermediate_router(rid)` (a new reference): the stock
 * `ValiantRouting` method asks its topology's. */
static PyObject *
intermediate_router(Core *c, long rid)
{
    PyObject *routing = c->o[S_routing], *rid_o = PyLong_FromLong(rid), *via = NULL;
    PyObject *topology, *rng, *fn;
    if (rid_o == NULL)
        return NULL;
    if (stock_hook(c, routing, N_random_intermediate_router, &fn) == 0) {
        PyObject *args[2] = {routing, rid_o};
        if (fn != STOCK(c, ValiantRouting, random_intermediate_router))
            via = call_method(c, N_random_intermediate_router, args, 2, NULL);
        else {
            if ((topology = get_attr(c, routing, N_topology)) != NULL) {
                if ((rng = get_attr(c, routing, N_rng)) != NULL) {
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

/* `args[0].<name n>(args)` by name with `args[1]` the view of router
 * `rid`: the truth of its answer, -1 on error. */
static int
truth_on_view(Core *c, int n, long rid, PyObject **args, size_t nargs)
{
    PyObject *answer;
    int on;
    if ((args[1] = item(L(c, views), rid)) == NULL)
        return -1;
    if ((answer = call_method(c, n, args, nargs, NULL)) == NULL)
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
    PyObject *routing = c->o[S_routing], *fn;
    long dst, dst_router, port, via, q_min, len_min, q_val, len_val, there, onward;
    if (stock_hook(c, routing, N__ugal_prefers_valiant, &fn) < 0)
        return -1;
    if (fn != STOCK(c, UGALRouting, _ugal_prefers_valiant)) {
        PyObject *args[4] = {routing, NULL, packet, intermediate};
        return truth_on_view(c, N__ugal_prefers_valiant, rid, args, 4);
    }
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
    PyObject *routing = c->o[S_routing], *fn;
    if (stock_hook(c, routing, N_prefers_valiant, &fn) < 0)
        return -1;
    if (fn == STOCK(c, UGALRouting, prefers_valiant))
        return ugal_prefers(c, rid, packet, intermediate);
    if (c->dragonfly && fn == STOCK(c, PiggybackRouting, prefers_valiant)
        && PyList_Check(L(c, flags))) {
        /* PB: the saturation flag of the minimal global link first. */
        PyObject *flags;
        long group, dst, dst_group, offset;
        int on;
        if (ask(c, Q_ROUTER_REGION, rid, &group) < 0 || pget_long(c, packet, F_dst, &dst) < 0
            || ask(c, Q_NODE_REGION, dst, &dst_group) < 0
            || get_long(L(c, link_offsets), group * c->size[Z_NUM_REGIONS] + dst_group, &offset) < 0
            || (flags = item(L(c, flags), group)) == NULL || (flags = at(flags, offset)) == NULL
            || (on = truth(flags)) < 0)
            return -1;
        return on ? 1 : ugal_prefers(c, rid, packet, intermediate);
    }
    {
        PyObject *args[5] = {routing, NULL, packet, intermediate, cycle_o};
        return truth_on_view(c, N_prefers_valiant, rid, args, 5);
    }
}

/* `ValiantRouting.on_inject`: the intermediate router. */
static int
valiant_inject(Core *c, long rid, PyObject *packet)
{
    PyObject *via = intermediate_router(c, rid);
    int failed;
    if (via == NULL)
        return -1;
    failed = pset(c, packet, F_valiant_router, via);
    Py_DECREF(via);
    return failed;
}

/* `UGALRouting.on_inject`: minimal, unless the trigger prefers the Valiant
 * path through a drawn intermediate router. */
static int
ugal_inject(Core *c, long rid, PyObject *packet, PyObject *cycle_o)
{
    PyObject *via;
    long src_region, dst, dst_region;
    int on;
    if (ask(c, Q_ROUTER_REGION, rid, &src_region) < 0 || pget_long(c, packet, F_dst, &dst) < 0
        || ask(c, Q_NODE_REGION, dst, &dst_region) < 0)
        return -1;
    if (dst_region == src_region)
        return 0;
    if ((via = intermediate_router(c, rid)) == NULL)
        return -1;
    if ((on = prefers_valiant(c, rid, packet, via, cycle_o)) > 0
        && pset(c, packet, F_valiant_router, via) < 0)
        on = -1;
    Py_DECREF(via);
    return on < 0 ? -1 : 0;
}

/* `routing.on_inject(view, packet, cycle)`. */
static int
inject_hook(Core *c, long rid, PyObject *packet, PyObject *cycle_o)
{
    PyObject *routing = c->o[S_routing], *fn;
    if (stock_hook(c, routing, N_on_inject, &fn) < 0)
        return -1;
    if (fn == STOCK(c, RoutingAlgorithm, on_inject))
        return 0;
    if (fn == STOCK(c, ValiantRouting, on_inject))
        return valiant_inject(c, rid, packet);
    if (fn == STOCK(c, UGALRouting, on_inject))
        return ugal_inject(c, rid, packet, cycle_o);
    {
        PyObject *args[4] = {routing, NULL, packet, cycle_o};
        return invoke_on_view(c, N_on_inject, rid, args, 4);
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
    PyObject *queue, *packet = NULL, *rid_o, *popped;
    long node_id, rid, port, g, num_vcs, pointer, size, offset, vc = 0, free_phits, injected;
    int failed = -1;
    if ((queue = get_attr(c, node, N_source_queue)) == NULL)
        return -1;
    if ((packet = PySequence_GetItem(queue, 0)) == NULL || attr_long(c, node, N_node_id, &node_id) < 0
        || (rid_o = at(L(c, node_rid), node_id)) == NULL || as_long(rid_o, &rid) < 0
        || attr_long(c, node, N_port, &port) < 0
        || get_col(c, in_nvcs, rid * c->P + port, &num_vcs) < 0
        || attr_long(c, node, N__vc_pointer, &pointer) < 0
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
        if ((popped = call_method(c, N_popleft, args, 1, NULL)) == NULL)
            goto done;
        Py_DECREF(popped);
    }
    if (pset(c, packet, F_injection_cycle, cycle_o) < 0 || inject_hook(c, rid, packet, cycle_o) < 0
        || push(c, rid, port, vc, packet, size, NULL) < 0)
        goto done;
    if (c->notify_arrival && arrival_hook(c, rid, port, vc, packet, cycle_o) < 0)
        goto done;
    if (set_attr_long(c, node, N__vc_pointer, pymod(vc + 1, num_vcs)) < 0
        || set_attr_long(c, node, N_next_injection_cycle, cycle + size) < 0
        || attr_long(c, node, N_injected_packets, &injected) < 0
        || set_attr_long(c, node, N_injected_packets, injected + 1) < 0)
        goto done;
    failed = 0;
done:
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
        decision = call_method(c, N_plain_decision, args, 3, NULL);
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

/* The output port and VC of `decision`: by field position from an exact
 * `RoutingDecision`, else by attribute. */
static int
decision_port_vc(Core *c, PyObject *decision, long *port, long *vc)
{
    PyObject *port_o, *vc_o = NULL;
    int failed;
    if (Py_IS_TYPE(decision, (PyTypeObject *)L(c, RoutingDecision))) {
        port_o = Py_NewRef(PyTuple_GET_ITEM(decision, D_output_port));
        vc_o = Py_NewRef(PyTuple_GET_ITEM(decision, D_vc));
    }
    else if ((port_o = get_attr(c, decision, N_output_port)) != NULL)
        vc_o = get_attr(c, decision, N_vc);
    failed = vc_o == NULL || as_long(port_o, port) < 0 || as_long(vc_o, vc) < 0;
    Py_XDECREF(vc_o);
    Py_XDECREF(port_o);
    return failed ? -1 : 0;
}

/* `head`'s request for `decision`, which it steals (NULL: an error; `None`:
 * no request): its output port and VC (`decision_port_vc`), its size and the
 * decision into the fields given.  1, 0 for no request, -1 on error. */
static int
fix(Core *c, PyObject *head, PyObject *decision, long *port, long *vc, long *size,
    PyObject **held)
{
    if (decision == NULL)
        return -1;
    if (decision == Py_None) {
        Py_DECREF(decision);
        return 0;
    }
    if (decision_port_vc(c, decision, port, vc) < 0
        || pget_long(c, head, F_size_phits, size) < 0) {
        Py_DECREF(decision);
        return -1;
    }
    *held = decision;
    return 1;
}

/* `fix` of the decision `made` into row or request `x`. */
#define FIX(c, x, head, made) \
    fix((c), (head), (made), &(x)->out_port, &(x)->vc, &(x)->size, &(x)->decision)

/* `routing.global_candidates(rid, dst_group, minimal, proxy)` or, with
 * `local`, `routing.local_candidates(minimal)`, as gate row `r`'s
 * candidates: while the name resolves to the stock function, a view of the
 * router's shared candidate tuple that `walk` filters in place
 * (`routing.router_candidates(rid)` builds the tuple on the router's first
 * use); else what the call by name returns, as a list. */
static int
candidates_of(Core *c, long rid, long dst_group, long minimal, int proxy, int local, row *r)
{
    PyObject *routing = c->o[S_routing], *found = NULL, *rid_o, *dst_o, *minimal_o, *fn;
    int n = local ? N_local_candidates : N_global_candidates;
    r->minimal = minimal;
    r->view = 0;
    if (stock_hook(c, routing, n, &fn) < 0)
        return -1;
    if (PyList_Check(L(c, shared))
        && fn == (local ? STOCK(c, AdaptiveInTransitRouting, local_candidates)
                        : STOCK(c, AdaptiveInTransitRouting, global_candidates))) {
        PyObject *shared;
        if ((shared = item(L(c, shared), rid)) == NULL)
            return -1;
        if (shared != Py_None)
            Py_INCREF(shared);
        else if ((rid_o = PyLong_FromLong(rid)) == NULL)
            return -1;
        else {
            PyObject *args[2] = {routing, rid_o};
            shared = call_method(c, N_router_candidates, args, 2, NULL);
            Py_DECREF(rid_o);
        }
        if (shared != NULL && !PyTuple_Check(shared))
            Py_SETREF(shared, PySequence_Tuple(shared));
        if (shared == NULL)
            return -1;
        r->candidates = shared;
        r->view = 1;
        r->first = local ? c->num_global : 0;
        r->dst_group = dst_group;
        r->proxy = proxy;
        return 0;
    }
    rid_o = PyLong_FromLong(rid);
    dst_o = PyLong_FromLong(dst_group);
    minimal_o = PyLong_FromLong(minimal);
    if (rid_o != NULL && dst_o != NULL && minimal_o != NULL) {
        PyObject *args[5] = {routing, rid_o, dst_o, minimal_o, proxy ? Py_True : Py_False};
        if (local)
            args[1] = minimal_o;
        found = call_method(c, n, args, local ? 2 : 5, NULL);
    }
    Py_XDECREF(minimal_o);
    Py_XDECREF(dst_o);
    Py_XDECREF(rid_o);
    if (found != NULL && !PyList_Check(found))
        Py_SETREF(found, PySequence_List(found));
    r->candidates = found;
    return found == NULL ? -1 : 0;
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

/* ECtN's `combined_view` of a head at `check_port` into gate row `r`: the
 * group, its minimal link's offset and the port base (see `choose_global`);
 * none for a trigger without the combined signal or a transit port. */
static int
capture_ectn(Core *c, long rid, long check_port, PyObject *head, row *r)
{
    PyObject *min_offset;
    long dst;
    int on, failed;
    if (!(c->signals & READS_COMBINED))
        return 0;
    if ((on = port_is(c, S_kind_is_injection, check_port)) <= 0)
        return on;
    if (pget_long(c, head, F_dst, &dst) < 0)
        return -1;
    r->ectn_group = pydiv(rid, c->rpg);
    if ((min_offset = link_offset(c, r->ectn_group, pydiv(dst, c->npg))) == NULL)
        return -1;
    failed = as_long(min_offset, &r->ectn_min_offset);
    Py_DECREF(min_offset);
    r->ectn = !failed;
    r->ectn_base = pymod(rid, c->rpg) * c->h - c->first_global;
    return failed;
}

/* The MM+L group policy.  One row per head suffices: the local-misroute gate
 * needs `current_group == dst_group or global_hops == 1` and the global
 * gates `dst_group != current_group and global_hops == 0`, so a head never
 * falls from a failed global gate into the local one -- only into the
 * minimal fallback, which every row carries. */
static int
capture_group(Core *c, long rid, long k, PyObject *head, row *r)
{
    PyObject *minimal;
    long dst, dst_router, current_group, dst_group, port, hops, min_vc = 0;
    int on, global, injection;
    if (pget_long(c, head, F_dst, &dst) < 0)
        return -1;
    dst_router = pydiv(dst, c->npr);
    if (rid == dst_router)
        return FIX(c, r, head, plain_decision(c, pymod(dst, c->npr), 0)) < 0 ? -1 : 0;
    current_group = pydiv(rid, c->rpg);
    dst_group = pydiv(dst_router, c->rpg);
    if ((minimal = minimal_port(c, head, rid, dst)) == NULL)
        return -1;
    on = as_long(minimal, &port);
    Py_DECREF(minimal);
    if (on < 0 || (global = port_is(c, S_kind_is_global, port)) < 0
        || (injection = port_is(c, S_kind_is_injection, port)) < 0
        || ((global || !injection) && next_vc(c, head, global, &min_vc) < 0)
        || FIX(c, r, head, plain_decision(c, port, min_vc)) < 0
        || pget_long(c, head, F_global_hops, &hops) < 0
        || (on = ptruth(c, head, F_must_misroute_global)) < 0)
        return -1;
    if (on && dst_group != current_group && hops == 0) {
        /* The committed local-proxy step.  Its trigger is asked with port 0,
         * an injection port on every topology with p >= 1. */
        long group;
        r->kind = ROW_FORCED;
        return ask(c, Q_NODE_REGION, dst, &group) < 0
               || candidates_of(c, rid, group, port, 0, 0, r) < 0
               || next_vc(c, head, 1, &r->global_vc) < 0
               || capture_ectn(c, rid, 0, head, r) < 0 ? -1 : 0;
    }
    if (dst_group != current_group && hops == 0) {
        if ((on = ptruth(c, head, F_globally_misrouted)) < 0)
            return -1;
        if (!on) {
            long path_hops;
            r->kind = ROW_GLOBAL;
            return pget_long(c, head, F_hops, &path_hops) < 0
                   || candidates_of(c, rid, dst_group, port, path_hops == 0, 0, r) < 0
                   || next_vc(c, head, 1, &r->global_vc) < 0
                   || next_vc(c, head, 0, &r->local_vc) < 0
                   || capture_ectn(c, rid, k / c->V, head, r) < 0 ? -1 : 0;
        }
    }
    if (!global && !injection) {
        long in_group;
        if (pget_long(c, head, F_local_hops_in_group, &in_group) < 0)
            return -1;
        if (in_group == 0 && hops <= 1 && (current_group == dst_group || hops == 1)) {
            r->kind = ROW_LOCAL;
            return candidates_of(c, rid, dst_group, port, 1, 1, r) < 0
                   || next_vc(c, head, 0, &r->local_vc) < 0 ? -1 : 0;
        }
    }
    return 0;
}

/* The VC of `head`'s hop through `port_o`: `topology.ring_vc(head, rid,
 * port)` on a dateline topology, where `_updown_vcs` is `None` (the ring
 * state it reads changes only in `on_grant` and at a Valiant intermediate,
 * never while the packet waits at a head); else the entry of the up/down
 * table. */
static int
port_vc(Core *c, long rid, PyObject *head, PyObject *port_o, long *vc)
{
    PyObject *vc_o;
    long port;
    if (L(c, updown_vcs) == Py_None)
        return ring_vc(c, head, rid, port_o, vc);
    return as_long(port_o, &port) < 0 || (vc_o = at(L(c, updown_vcs), port)) == NULL
               ? -1
               : as_long(vc_o, vc);
}

/* The port-table policy (ring escape, uplink multipath): a non-empty
 * candidate list of the minimal port is a `LOCAL` row, its VC the first
 * candidate's (the routing checked at construction that sibling uplinks
 * share one; a ring has one escape); everything else is `FIXED`, and in the
 * middle of a ring traversal the row holds the committed direction. */
static int
capture_port_table(Core *c, long rid, PyObject *head, row *r)
{
    PyObject *minimal, *candidates = NULL, *home, *ring, *out;
    long dst, home_rid, port, vc;
    int mid = 0, failed = -1;
    if (pget_long(c, head, F_dst, &dst) < 0
        || (home = at(L(c, node_rid), dst)) == NULL || as_long(home, &home_rid) < 0)
        return -1;
    if (rid == home_rid)
        return FIX(c, r, head, plain_decision(c, pymod(dst, c->npr), 0)) < 0 ? -1 : 0;
    if ((minimal = minimal_port(c, head, rid, dst)) == NULL)
        return -1;
    if (as_long(minimal, &r->minimal) < 0 || (ring = at(L(c, ring_dims), r->minimal)) == NULL
        || (candidates = at(L(c, port_candidates), r->minimal)) == NULL
        || expect_list(candidates, "a candidate list") < 0) {
        Py_DECREF(minimal);
        return -1;
    }
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
        r->kind = ROW_LOCAL;
        r->candidates = Py_NewRef(candidates);
        if (first == NULL || port_vc(c, rid, head, first, &r->local_vc) < 0)
            goto done;
    }
    if (port_vc(c, rid, head, out, &vc) < 0 || as_long(out, &port) < 0)
        goto done;
    failed = FIX(c, r, head, plain_decision(c, port, vc)) < 0 ? -1 : 0;
done:
    Py_DECREF(candidates);
    Py_DECREF(minimal);
    return failed;
}

/* The pure capture (MIN / VAL / UGAL / PB): `decision_is_pure` plus the
 * head-constancy of every input (packet fields, topology) make the decision
 * a constant of the head -- one `select_output` per head lifetime, in a
 * `FIXED` row.  While the routing resolves the name to `MinimalRouting`'s
 * or `ValiantRouting`'s stock function (UGAL and PB inherit the latter) its
 * body runs here, `minimal_decision` and `hop_vc` inlined (on a dateline
 * topology `hop_vc` asks the ring state machine, `ring_vc`); for anything
 * else the method is called by name. */

/* `hop_vc(head, rid, port, kind)` of a non-injection `port` on a dateline
 * topology: `ring_vc`. */
static int
dateline_vc(Core *c, PyObject *head, long rid, long port, long *vc)
{
    PyObject *port_o = PyLong_FromLong(port);
    int failed;
    if (port_o == NULL)
        return -1;
    failed = ring_vc(c, head, rid, port_o, vc);
    Py_DECREF(port_o);
    return failed;
}

/* `minimal_decision(router, head)`: the minimal port and its path-stage,
 * dateline or up/down VC. */
static PyObject *
pure_minimal(Core *c, long rid, PyObject *head, long dst)
{
    long port, vc = 0;
    int global, injection;
    if (route(c, rid, dst, 0, &port) < 0)
        return NULL;
    if (c->dateline) {
        if ((injection = port_is(c, S_kind_is_injection, port)) < 0
            || (!injection && dateline_vc(c, head, rid, port, &vc) < 0))
            return NULL;
    }
    else if (L(c, updown_vcs) != Py_None) {
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

/* `topology.port_target_region(rid, port)` of a global `port`, stock: the
 * region of the router its link reaches, from the peer table; an override,
 * or a port without a link (the body raises), by name. */
static int
target_region(Core *c, long rid, PyObject *rid_o, long port, PyObject *port_o, long *region)
{
    PyObject *args[3] = {L(c, topology), rid_o, port_o}, *fn;
    long peer;
    int on;
    if (stock_hook(c, L(c, topology), N_port_target_region, &fn) < 0)
        return -1;
    if (fn == STOCK(c, Topology, port_target_region) && (on = sizes_stock(c, L(c, topology)))) {
        if (on < 0 || link_peer(c, rid, port, &peer) < 0)
            return -1;
        if (peer != NO_LINK) {
            *region = pydiv(peer, c->size[Z_ROUTERS_PER_REGION]);
            return 0;
        }
    }
    return call_long(c, N_port_target_region, args, 3, region);
}

/* `ValiantRouting.select_output` past the ejection test: towards the
 * Valiant intermediate router while the packet has one, else minimal. */
static PyObject *
pure_valiant(Core *c, long rid, PyObject *rid_o, PyObject *head, long dst)
{
    PyObject *via, *port_o, *vc_o = NULL, *decision = NULL;
    long target, port, vc = 0, region;
    int on, global, injection, nonminimal = 0;
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
        else if (c->dateline) {
            if (ring_vc(c, head, rid, port_o, &vc) < 0)
                goto done;
        }
        else if (L(c, updown_vcs) != Py_None) {
            PyObject *table_vc = at(L(c, updown_vcs), port);
            if (table_vc == NULL || as_long(table_vc, &vc) < 0)
                goto done;
        }
        else if (next_vc(c, head, 0, &vc) < 0)
            goto done;
    }
    /* A hop that is no detour is the shared flag-free decision. */
    if (!nonminimal)
        decision = plain_decision(c, port, vc);
    else if ((vc_o = PyLong_FromLong(vc)) != NULL)
        decision = new_decision(c, port_o, vc_o, global, !global, 0);
done:
    Py_XDECREF(vc_o);
    Py_DECREF(port_o);
    return decision;
}

/* The stock body: ejection at the destination's router (for VAL only without
 * a Valiant router), else `pure_valiant` / `minimal_decision`. */
static PyObject *
pure_decision(Core *c, long rid, PyObject *rid_o, PyObject *head, int valiant)
{
    PyObject *home_o;
    long dst, home;
    int ejecting = 1;
    if (pget_long(c, head, F_dst, &dst) < 0
        || (valiant && (ejecting = pis(c, head, F_valiant_router, Py_None)) < 0))
        return NULL;
    if (ejecting) {
        if ((home_o = at(L(c, node_rid), dst)) == NULL || as_long(home_o, &home) < 0)
            return NULL;
        if (rid == home)
            return plain_decision(c, pymod(dst, c->npr), 0);
    }
    return valiant ? pure_valiant(c, rid, rid_o, head, dst) : pure_minimal(c, rid, head, dst);
}

static int
capture_pure(Core *c, long rid, PyObject *rid_o, long k, PyObject *head, PyObject *cycle_o,
             row *r)
{
    PyObject *routing = c->o[S_routing], *decision = NULL, *fn;
    int valiant = 0;
    if (stock_hook(c, routing, N_select_output, &fn) < 0)
        return -1;
    if ((fn == STOCK(c, MinimalRouting, select_output)
                       || (valiant = fn == STOCK(c, ValiantRouting, select_output))))
        decision = pure_decision(c, rid, rid_o, head, valiant);
    else {
        PyObject *port_o = PyLong_FromLong(k / c->V), *vc_o = PyLong_FromLong(k % c->V);
        PyObject *args[6] = {routing, NULL, port_o, vc_o, head, cycle_o};
        if (port_o != NULL && vc_o != NULL && (args[1] = item(L(c, views), rid)) != NULL)
            decision = call_method(c, N_select_output, args, 6, NULL);
        Py_XDECREF(vc_o);
        Py_XDECREF(port_o);
    }
    return FIX(c, r, head, decision) < 0 ? -1 : 0;
}

/* --------------------------------------------------------------- allocate */
/* `Router.allocate`: report new heads, then the allocation rounds, each head
 * answering with the request of its captured row ("Row kinds" in
 * soa/engine.py). */

/* Capture the head of VC `q` (buffer key `k`) into its row. */
static int
capture(Core *c, long rid, PyObject *rid_o, long q, long k, PyObject *head, PyObject *cycle_o)
{
    row r;
    int failed;
    memset(&r, 0, sizeof r);
    r.kind = ROW_FIXED;
    failed = c->capture == CAPTURE_PURE ? capture_pure(c, rid, rid_o, k, head, cycle_o, &r)
             : c->capture == CAPTURE_GROUP ? capture_group(c, rid, k, head, &r)
             : capture_port_table(c, rid, head, &r);
    if (failed < 0) {
        row_clear(&r);
        return -1;
    }
    return store_row(c, q, &r);
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

/* Head `k`'s request for this round into `req`: 1, 0 for no request, -1 on
 * error (`req` holds nothing then).  `*live` is set by a `LIVE` head: its
 * evaluation may draw. */
static int
head_request(Core *c, PyObject *engine, long rid, PyObject *rid_o, long k, PyObject *cycle_o,
             long round_index, PyObject **counts, int *live, request *req)
{
    long base_g = rid * c->P, q = base_g * c->V + k;
    const row *r = row_of(c, q);
    req->in_port = k / c->V;
    req->in_vc = k % c->V;
    req->decision = req->chosen = NULL;
    if (r == NULL) {
        /* Only here can a key of `occupied` have lost its head without a
         * grant: `_resolve_faults` drops heads, and with faults attached
         * nothing is captured.  The head is read fresh for the same reason:
         * a drop while round 1 gathers requests lets round 2 meet a
         * successor no `on_packet_head` was called for yet (it is reported
         * next cycle, as in the object model). */
        PyObject *dq = item(L(c, in_q), q), *head, *q_o, *k_o, *round_o;
        int made = -1;
        if (dq == NULL)
            return -1;
        if (!PyList_Check(dq) || PyList_GET_SIZE(dq) == 0)
            return 0;
        *live = 1;
        head = Py_NewRef(PyList_GET_ITEM(dq, 0));
        q_o = PyLong_FromLong(q);
        k_o = PyLong_FromLong(k);
        round_o = PyLong_FromLong(round_index);
        if (q_o != NULL && k_o != NULL && round_o != NULL) {
            PyObject *args[7] = {engine, rid_o, q_o, k_o, head, cycle_o, round_o};
            made = FIX(c, req, head, call_method(c, N__live_request, args, 7, NULL));
        }
        Py_XDECREF(round_o);
        Py_XDECREF(k_o);
        Py_XDECREF(q_o);
        Py_DECREF(head);
        return made;
    }
    if (r->kind == ROW_FIXED)
        return fixed_request(r, req);
    {
        /* The trigger's draw may run Python: a copy of the row, holding what
         * it refers to. */
        row gate = *r;
        int made;
        Py_XINCREF(gate.decision);
        Py_XINCREF(gate.candidates);
        made = gate_request(c, rid, base_g, &gate, counts, req);
        row_clear(&gate);
        return made;
    }
}

/* Release what `n` requests hold. */
static void
requests_clear(request *reqs, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        Py_CLEAR(reqs[i].decision);
        Py_CLEAR(reqs[i].chosen);
    }
}

static int
allocate(Core *c, PyObject *engine, long rid, PyObject *rid_o, PyObject *cycle_o, long cycle)
{
    long base_g = rid * c->P;
    /* Per occupied head: its key and whether it was granted; per gathered
     * request: the request and its grant slot. */
    request stack_reqs[STACK_ITEMS], *reqs = stack_reqs;
    long stack_keys[STACK_ITEMS], *keys = stack_keys;
    Py_ssize_t stack_grants[STACK_ITEMS], *grants = stack_grants;
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
        size_t per_head = sizeof(request) + sizeof(long) + sizeof(Py_ssize_t) + 1;
        if ((heap = PyMem_Malloc((size_t)n * per_head)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        reqs = heap;
        keys = (long *)(reqs + n);
        grants = (Py_ssize_t *)(keys + n);
        granted = (char *)(grants + n);
    }
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
            request *req = &reqs[num_reqs];
            long og, have;
            int made;
            if (granted[i])
                continue;
            made = head_request(c, engine, rid, rid_o, keys[i], cycle_o, round_index, &counts,
                                &live, req);
            if (made < 0)
                goto done;
            if (made == 0)
                continue;
            num_reqs++; /* released at `done` or after the round */
            og = base_g + req->out_port;
            if (get_col(c, out_free, og, &have) < 0
                || (have >= req->size && get_col(c, credits, og * c->V + req->vc, &have) < 0))
                goto done;
            if (have < req->size) {
                requests_clear(req, 1);
                num_reqs--;
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
                if (set_col(c, in_ptr, base_g + req->in_port, pymod(req->in_vc + 1, nvc)) < 0
                    || set_col(c, out_ptr, og, pymod(req->in_port + 1, c->P)) < 0
                    || commit(c, rid, req, cycle_o, cycle) < 0)
                    goto done;
                failed = 0;
                goto done;
            }
            req->key = i;
        }
        if (num_reqs == 0)
            break;
        num_grants = alloc_round(c, rid, base_g, num_reqs, reqs, grants);
        if (num_grants < 0)
            goto done;
        for (i = 0; i < num_grants; i++) {
            if (commit(c, rid, &reqs[grants[i]], cycle_o, cycle) < 0)
                goto done;
            granted[reqs[grants[i]].key] = 1;
            any_granted = 1;
        }
        requests_clear(reqs, num_reqs);
        num_reqs = 0;
    }
    /* Grant-free and draw-free: every input of this evaluation is
     * router-local and invalidation-tracked, so skip until poked.  A `FIXED`
     * row or a closed gate never draws, and a `LIVE` evaluation always
     * counts as a draw. */
    if (!any_granted && !live && c->draws == draws && set_bool(L(c, alloc_clean), rid, 1) < 0)
        goto done;
    failed = 0;
done:
    requests_clear(reqs, num_reqs);
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
    PyObject *bound, *fn;
    int on;
    if (stock_hook(c, metrics, N_in_window, &fn) < 0)
        return -1;
    if (fn != STOCK(c, MetricsCollector, in_window)) {
        PyObject *args[2] = {metrics, cycle_o}, *answer;
        if ((answer = call_method(c, N_in_window, args, 2, NULL)) == NULL)
            return -1;
        on = truth(answer);
        Py_DECREF(answer);
        return on;
    }
    if ((bound = get_attr(c, metrics, N_measure_start)) == NULL)
        return -1;
    on = PyObject_RichCompareBool(cycle_o, bound, Py_LT);
    Py_DECREF(bound);
    if (on != 0)
        return on < 0 ? -1 : 0;
    if ((bound = get_attr(c, metrics, N_measure_end)) == NULL)
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
    PyObject *bins = NULL, *key = NULL, *point, *fn;
    long creation, start, end, size;
    int failed = -1, on;
    if (stock_hook(c, series, N_record, &fn) < 0)
        return -1;
    if (fn != STOCK(c, TimeSeriesRecorder, record)) {
        PyObject *args[5] = {series, creation_o, latency, misrouted, size_o};
        if ((point = call_method(c, N_record, args, 3, kw_bin)) == NULL)
            return -1;
        Py_DECREF(point);
        return 0;
    }
    if (as_long(creation_o, &creation) < 0 || attr_long(c, series, N_start_cycle, &start) < 0)
        return -1;
    if (creation < start)
        return 0;
    if ((point = get_attr(c, series, N_end_cycle)) == NULL)
        return -1;
    on = point == Py_None ? 0 : as_long(point, &end) < 0 ? -1 : creation >= end;
    Py_DECREF(point);
    if (on != 0)
        return on < 0 ? -1 : 0;
    if (attr_long(c, series, N_bin_size, &size) < 0
        || (bins = get_attr(c, series, N__bins)) == NULL)
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
             || (point = global_of(STOCK(c, TimeSeriesRecorder, record), name_of[N_TimeSeriesPoint])) == NULL
             || (point = call_python(point, &key, 1, NULL)) == NULL)
        goto done;
    else if (PyDict_SetItem(bins, key, point) < 0) {
        Py_DECREF(point);
        goto done;
    }
    failed = attr_iadd(c, point, N_count, one) < 0 || attr_iadd(c, point, N_latency_sum, latency) < 0
             || attr_iadd(c, point, N_delivered_phits, size_o) < 0
             || (on = truth(misrouted)) < 0 || (on && attr_iadd(c, point, N_misrouted, one) < 0)
             ? -1 : 0;
    Py_DECREF(point);
done:
    Py_XDECREF(key);
    Py_DECREF(bins);
    return failed;
}

/* `metrics.latency._samples.append(latency)`. */
static int
append_sample(Core *c, PyObject *metrics, PyObject *latency)
{
    PyObject *stats = get_attr(c, metrics, N_latency), *samples;
    int failed;
    if (stats == NULL)
        return -1;
    samples = get_attr(c, stats, N__samples);
    Py_DECREF(stats);
    if (samples == NULL)
        return -1;
    {
        PyObject *args[2] = {samples, latency};
        failed = PyList_CheckExact(samples) ? PyList_Append(samples, latency)
                                            : call_void(c, N_append, args, 2);
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
    PyObject *value = NULL, *fn;
    int failed = -1, on;
    if (stock_hook(c, metrics, N_record_delivery, &fn) < 0)
        return -1;
    if (fn != STOCK(c, MetricsCollector, record_delivery)) {
        PyObject *args[3] = {metrics, packet, cycle_o};
        return call_void(c, N_record_delivery, args, 3);
    }
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
    if (on && (attr_iadd(c, metrics, N_delivered_packets, one) < 0
               || attr_iadd(c, metrics, N_delivered_phits, size_o) < 0
               || (on = ptruth(c, packet, F_fault_mode)) < 0
               || (on && attr_iadd(c, metrics, N_fault_rerouted_delivered, one) < 0)))
        goto done;
    if ((on = in_window(c, metrics, creation)) < 0)
        goto done;
    if (on && (append_sample(c, metrics, latency) < 0
               || (value = pget(c, packet, F_hops)) == NULL
               || attr_iadd(c, metrics, N_hops_sum, value) < 0
               || (on = ptruth(c, packet, F_globally_misrouted)) < 0
               || (on && attr_iadd(c, metrics, FIELD_NAME(F_globally_misrouted), one) < 0)
               || (on = ptruth(c, packet, F_locally_misrouted)) < 0
               || (on && attr_iadd(c, metrics, FIELD_NAME(F_locally_misrouted), one) < 0)))
        goto done;
    Py_CLEAR(value);
    if ((value = get_attr(c, metrics, N_timeseries)) == NULL)
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
    PyObject *creation, *fn;
    int on;
    if (stock_hook(c, metrics, N_record_generated, &fn) < 0)
        return -1;
    if (fn != STOCK(c, MetricsCollector, record_generated)) {
        PyObject *args[2] = {metrics, packet};
        return call_void(c, N_record_generated, args, 2);
    }
    if ((creation = pget(c, packet, F_creation_cycle)) == NULL)
        return -1;
    on = in_window(c, metrics, creation);
    Py_DECREF(creation);
    return on <= 0 ? on : attr_iadd(c, metrics, N_generated_in_window, one);
}

/* ----------------------------------------------------------- router phase */
/* `for packet in packets: sink.<name n>(packet, cycle)`; with `collector`,
 * a delivery through `record_delivery` above. */
static int
report_packets(Core *c, PyObject *sink, int n, PyObject *packets, PyObject *cycle_o,
               int collector)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(packets); i++) {
        PyObject *packet = Py_NewRef(PyList_GET_ITEM(packets, i));
        PyObject *args[3] = {sink, packet, cycle_o};
        int failed = collector && n == N_record_delivery
                     ? record_delivery(c, sink, packet, cycle_o) : call_void(c, n, args, 3);
        Py_DECREF(packet);
        if (failed)
            return -1;
    }
    return 0;
}

/* Report and empty the delivered (or dropped) list; returns how many packets
 * it held, -1 on error. */
static Py_ssize_t
drain(Core *c, PyObject *packets, int n, PyObject *metrics, PyObject *obs, PyObject *cycle_o)
{
    Py_ssize_t held = PyList_GET_SIZE(packets);
    if (held == 0)
        return 0;
    if ((metrics != Py_None && report_packets(c, metrics, n, packets, cycle_o, 1) < 0)
        || (obs != Py_None && report_packets(c, obs, n, packets, cycle_o, 0) < 0)
        || PyList_SetSlice(packets, 0, PyList_GET_SIZE(packets), NULL) < 0)
        return -1;
    return held;
}

/* The events due this cycle, then allocation and output service router by
 * router, then retirement (`Engine._router_phase`, minus the warp hint). */
static int
router_phase(Core *c, PyObject *engine, PyObject *cycle_o, long cycle, PyObject *metrics,
             PyObject *obs, PyObject *faults, PyObject *active, Py_ssize_t *counts)
{
    due_list due, svc;
    Py_ssize_t num_active, ai = 0, si = 0, n, kept;
    calendar *releases = &c->cal[CAL_RELEASE];
    long P = c->P;
    int failed = -1, on;
    due_init(&due);
    due_init(&svc);
    /* The calendars are popped only now, after the driver's injection pass:
     * UGAL/PB `on_inject` reads `credit_occ`, and the object engine runs
     * `begin_cycle` after injection too. */
    if (cal_pop(&c->cal[CAL_CREDIT], cycle, &due) < 0 || apply_credits(c, &due) < 0)
        goto done;
    due_free(&due);
    if (cal_pop(&c->cal[CAL_ARRIVAL], cycle, &due) < 0
        || apply_arrivals(c, &due, cycle_o, active) < 0 || cal_pop(releases, cycle, &svc) < 0)
        goto done;
    due_free(&due);
    counts[2] = num_active = PyList_GET_SIZE(active);
    if (num_active > 0 || svc.n > 0) {
        PyObject *unsorted = get_attr(c, c->o[S_st], N_unsorted);
        if (unsorted == NULL)
            goto done;
        on = truth(unsorted);
        Py_DECREF(unsorted);
        if (on < 0
            || (on && (PyList_Sort(active) < 0
                       || set_attr(c, c->o[S_st], N_unsorted, Py_False) < 0)))
            goto done;
        /* A port has at most one release a cycle. */
        due_sort(&svc, 0);
    }
    /* Merge-walk the sorted routers-with-a-head list and the sorted due-port
     * list, so deliveries, metrics and `repro.obs` flight events keep the
     * object engine's router-major order. */
    while ((ai < num_active && ai < PyList_GET_SIZE(active)) || si < svc.n) {
        long rid, port = si < svc.n ? svc.items[si].f[0] : 0, first;
        Py_ssize_t moved;
        int have_active = ai < num_active && ai < PyList_GET_SIZE(active);
        if (have_active && as_long(PyList_GET_ITEM(active, ai), &first) < 0)
            goto done;
        if (have_active && (si == svc.n || first * P <= port)) {
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
             * due in this very cycle, after the calendar was popped: the
             * router's same-cycle releases join the due ones still to come,
             * which are all this router's or later ones' (popping the
             * releases before the allocation loop alone diverges from
             * `object`, which transmits right after allocate). */
            if (c->router_latency == 0) {
                Py_ssize_t before = svc.n;
                if (cal_pop(releases, cycle, &svc) < 0)
                    goto done;
                if (svc.n > before)
                    due_sort(&svc, si);
            }
        }
        else
            /* Due releases on a router without an occupied head. */
            rid = port / P;
        if (si < svc.n && svc.items[si].f[0] < rid * P + P
            && (si = release(c, &svc, si, rid)) < 0)
            goto done;
        if ((moved = drain(c, c->o[S_dlv], N_record_delivery, metrics, obs, cycle_o)) < 0)
            goto done;
        counts[0] += moved;
        if (faults != Py_None) {
            if ((moved = drain(c, c->o[S_drp], N_record_dropped, metrics, obs, cycle_o)) < 0)
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
    due_free(&svc);
    due_free(&due);
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
    PyObject *dst = NULL, *fn;
    long skip, drawn;
    if (args[1] == NULL || args[2] == NULL
        || stock_hook(c, pattern, N__random_node_excluding, &fn) < 0)
        goto done;
    if (fn != STOCK(c, TrafficPattern, _random_node_excluding)) {
        dst = call_method(c, N__random_node_excluding, args, 5, NULL);
        goto done;
    }
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
    PyObject *args[2] = {topology, NULL}, *answer, *pair, *fn;
    long nodes, regions;
    int failed = -1;
    if (stock_hook(c, topology, N_region_node_range, &fn) < 0)
        return -1;
    if (fn == STOCK(c, Topology, region_node_range)) {
        /* `nodes_per_region = num_nodes // num_regions` */
        if (topology_size(c, topology, Z_NUM_NODES, &nodes) < 0
            || topology_size(c, topology, Z_NUM_REGIONS, &regions) < 0)
            return -1;
        if (regions == 0) {
            PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
            return -1;
        }
        *low = region * pydiv(nodes, regions);
        *high = *low + pydiv(nodes, regions);
        return 0;
    }
    if ((args[1] = PyLong_FromLong(region)) == NULL)
        return -1;
    answer = call_method(c, N_region_node_range, args, 2, NULL);
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
    PyObject *topology, *next, *dst = NULL, *fn;
    long src, low, high, region, offset, regions;
    int uniform, on;
    if (stock_hook(c, pattern, N_destination, &fn) < 0)
        return NULL;
    if (fn == STOCK(c, TransientTraffic, destination)) {
        /* The pattern in effect at `cycle`. */
        if ((next = get_attr(c, pattern, N_switch_cycle)) == NULL)
            return NULL;
        on = PyObject_RichCompareBool(cycle_o, next, Py_LT);
        Py_DECREF(next);
        if (on < 0 || (next = get_attr(c, pattern, on ? N_before : N_after)) == NULL)
            return NULL;
        dst = destination(c, next, src_o, cycle_o, rng);
        Py_DECREF(next);
        return dst;
    }
    uniform = fn == STOCK(c, UniformTraffic, destination);
    if (!uniform && (fn != STOCK(c, AdversarialTraffic, destination))) {
        PyObject *args[4] = {pattern, src_o, cycle_o, rng};
        return call_method(c, N_destination, args, 4, NULL);
    }
    if (as_long(src_o, &src) < 0 || (topology = get_attr(c, pattern, N_topology)) == NULL)
        return NULL;
    if (uniform) {
        /* UN: any node but the source. */
        if (topology_size(c, topology, Z_NUM_NODES, &high) == 0)
            dst = node_excluding(c, pattern, 0, high, src_o, rng);
    }
    else {
        /* ADV+offset: any node of the region `offset` regions on. */
        if (ask_of(c, topology, Q_NODE_REGION, src, &region) == 0
            && attr_long(c, pattern, N_offset, &offset) == 0
            && topology_size(c, topology, Z_NUM_REGIONS, &regions) == 0) {
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
 * default while `cls` is `Packet` with its stock `__init__` and slots
 * (`bind_packet`), else the call. */
static PyObject *
new_packet(Core *c, PyObject *cls, PyObject **fields)
{
    static const int given[5] = {F_pid, F_src, F_dst, F_size_phits, F_creation_cycle};
    PyObject *packet;
    Py_ssize_t i;
    int built_here = 0;
    if (cls == L(c, Packet)) {
        PyTypeObject *type = c->packet_type;
        if ((!tag_valid(type) || type->tp_version_tag != c->packet_tag) && bind_packet(c) < 0)
            return NULL;
        built_here = c->packet_tag != 0 && c->defaults >= 0 && c->packet_init;
    }
    if (!built_here)
        return call_python(cls, fields, 0, kw_packet);
    if ((packet = c->packet_type->tp_alloc(c->packet_type, 0)) == NULL)
        return NULL;
    for (i = 0; i < 5; i++)
        *(PyObject **)((char *)packet + c->offset[given[i]]) = Py_NewRef(fields[i]);
    for (i = 0; i < c->defaults; i++)
        *(PyObject **)((char *)packet + c->default_offset[i])
            = Py_NewRef(PyTuple_GET_ITEM(PyTuple_GET_ITEM(L(c, packet_defaults), 1), i));
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
    if ((value = get_attr(c, traffic, N__packet_probability)) == NULL)
        return -1;
    probability = PyFloat_AsDouble(value);
    Py_DECREF(value);
    if (probability == -1.0 && PyErr_Occurred())
        return -1;
    if (probability <= 0.0)
        return 0;
    if (attr_long(c, traffic, N_block_cycles, &block) < 0
        || attr_long(c, traffic, N__block_index, &index) < 0)
        return -1;
    if (block <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return -1;
    }
    if (pydiv(cycle, block) > index) {
        PyObject *args[2] = {traffic, cycle_o};
        if (call_void(c, N__ensure_block, args, 2) < 0)
            return -1;
    }
    if ((cycles = get_attr(c, traffic, N__event_cycles)) == NULL
        || expect_list(cycles, "_event_cycles") < 0 || attr_long(c, traffic, N__ptr, &index) < 0)
        goto done;
    n = PyList_GET_SIZE(cycles);
    for (ptr = index; ptr < n; ptr++)
        if (get_long(cycles, ptr, &event) < 0)
            goto done;
        else if (event >= cycle)
            break;
    if (ptr < n && event == cycle) {
        if ((sources = get_attr(c, traffic, N__event_nodes)) == NULL
            || expect_list(sources, "_event_nodes") < 0
            || (pattern = get_attr(c, traffic, N_pattern)) == NULL
            || (rng = get_attr(c, traffic, N_rng)) == NULL
            || (fields[3] = get_attr(c, traffic, N_packet_size_phits)) == NULL
            || attr_long(c, traffic, N__next_pid, &first_pid) < 0)
            goto done;
        if ((cls = global_of(STOCK(c, BernoulliTrafficGenerator, generate), name_of[N_Packet])) == NULL)
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
    if (set_attr_long(c, traffic, N__ptr, ptr) < 0
        || set_attr(c, traffic, N__consumed_cycle, cycle_o) < 0)
        goto done;
    if (cls != NULL) {
        /* `self.generated_packets += pid - self._next_pid` */
        if (attr_long(c, traffic, N__next_pid, &first_pid) < 0
            || (value = PyLong_FromLong(pid - first_pid)) == NULL)
            goto done;
        failed = attr_iadd(c, traffic, N_generated_packets, value) < 0
                 || set_attr_long(c, traffic, N__next_pid, pid) < 0 ? -1 : 0;
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
    PyObject *nodes, *args[2] = {network, node}, *fn;
    int on, failed;
    if (stock_hook(c, network, N_activate_node, &fn) < 0)
        return -1;
    if (fn != STOCK(c, Network, activate_node))
        return call_void(c, N_activate_node, args, 2);
    if ((on = ptruth_attr(c, node, N_active)) != 0)
        return on < 0 ? -1 : 0;
    if (set_attr(c, node, N_active, Py_True) < 0
        || (nodes = get_attr(c, network, N__active_nodes)) == NULL)
        return -1;
    {
        PyObject *append[2] = {nodes, node};
        failed = PyList_CheckExact(nodes) ? PyList_Append(nodes, node)
                                          : call_void(c, N_append, append, 2);
    }
    Py_DECREF(nodes);
    return failed < 0 || set_attr(c, network, N__nodes_unsorted, Py_True) < 0 ? -1 : 0;
}

/* `node.enqueue(packet)`: the packet joins the node's source queue, made on
 * first use, and a newly backlogged node registers with its network. */
static int
enqueue(Core *c, PyObject *node, PyObject *packet)
{
    PyObject *queue, *size_o, *network, *fn;
    int failed = -1, on;
    if (stock_hook(c, node, N_enqueue, &fn) < 0)
        return -1;
    if (fn != STOCK(c, ComputeNode, enqueue)) {
        PyObject *args[2] = {node, packet};
        return call_void(c, N_enqueue, args, 2);
    }
    if ((queue = get_attr(c, node, N_source_queue)) == NULL)
        return -1;
    if (queue == Py_None) {
        PyObject *make = global_of(STOCK(c, ComputeNode, enqueue), name_of[N_deque]);
        Py_SETREF(queue, make == NULL ? NULL : call_python(make, NULL, 0, NULL));
        if (queue == NULL || set_attr(c, node, N_source_queue, queue) < 0)
            goto done;
    }
    {
        PyObject *args[2] = {queue, packet};
        if (call_void(c, N_append, args, 2) < 0 || attr_iadd(c, node, N_generated_packets, one) < 0
            || (size_o = pget(c, packet, F_size_phits)) == NULL)
            goto done;
    }
    on = attr_iadd(c, node, N_generated_phits, size_o);
    Py_DECREF(size_o);
    if (on < 0 || (on = ptruth_attr(c, node, N_active)) < 0)
        goto done;
    if (!on) {
        PyObject *ref = get_attr(c, node, N__network);
        /* A weak reference's call runs no Python code. */
        if (ref == NULL
            || (network = PyWeakref_CheckRefExact(ref) ? PyObject_CallNoArgs(ref)
                                                       : call_python(ref, NULL, 0, NULL))
                   == NULL) {
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
    if (!PyList_CheckExact(nodes) && !PyTuple_CheckExact(nodes))
        new_epoch(); /* a `__getitem__` may be Python code */
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
    PyObject *made, *iterator, *pair, *fn;
    int failed = 0;
    if (stock_hook(c, traffic, N_generate, &fn) < 0)
        return -1;
    if (fn == STOCK(c, BernoulliTrafficGenerator, generate)) {
        Py_ssize_t i;
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
        if ((made = call_method(c, N_generate, args, 2, NULL)) == NULL)
            return -1;
    }
    iterator = PyObject_GetIter(made);
    Py_DECREF(made);
    if (iterator == NULL)
        return -1;
    /* Each step may run the generator's Python code. */
    while (!failed && (new_epoch(), pair = PyIter_Next(iterator)) != NULL) {
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
node_key(Core *c, PyObject *node, long *key)
{
    return attr_long(c, node, N_node_id, key);
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
    if ((active = get_attr(c, network, N__active_nodes)) == NULL)
        return -1;
    if (expect_list(active, "network._active_nodes") < 0)
        goto done;
    if (PyList_GET_SIZE(active) == 0) {
        failed = 0;
        goto done;
    }
    if ((on = ptruth_attr(c, network, N__nodes_unsorted)) < 0 || (on && (sort_by(c, active, node_key) < 0
                          || set_attr(c, network, N__nodes_unsorted, Py_False) < 0))
        || (backlogged = PyList_New(0)) == NULL)
        goto done;
    /* The live list, as `for node in active_nodes` walks it. */
    for (i = 0; i < PyList_GET_SIZE(active); i++) {
        PyObject *node = Py_NewRef(PyList_GET_ITEM(active, i)), *queue = NULL;
        int bad = attr_long(c, node, N_next_injection_cycle, &next) < 0;
        if (!bad && cycle >= next) {
            if (own)
                bad = inject(c, node, cycle_o, cycle) < 0;
            else {
                PyObject *args[2] = {node, cycle_o};
                PyObject *result = call_python(inject_fn, args, 2, NULL);
                bad = result == NULL;
                Py_XDECREF(result);
            }
        }
        if (!bad && ((queue = get_attr(c, node, N_source_queue)) == NULL
                     || (on = truth(queue)) < 0))
            bad = 1;
        Py_XDECREF(queue);
        if (!bad) {
            if (on)
                bad = PyList_Append(backlogged, node) < 0
                      || attr_long(c, node, N_next_injection_cycle, &next) < 0;
            else
                bad = set_attr(c, node, N_active, Py_False) < 0;
            if (!bad && on && next < *hint)
                *hint = next;
        }
        Py_DECREF(node);
        if (bad)
            goto done;
    }
    failed = set_attr(c, network, N__active_nodes, backlogged);
done:
    Py_XDECREF(backlogged);
    Py_DECREF(active);
    return failed;
}

/* ------------------------------------------------------------ the type */
static int
Core_traverse(Core *c, visitproc visit, void *arg)
{
    int i, way;
    int32_t j;
    for (i = 0; i < N_SLOTS; i++)
        Py_VISIT(c->o[i]);
    for (i = 0; i < N_NAMES; i++)
        for (way = 0; way < MEMO_WAYS; way++)
            Py_VISIT(c->memo[i][way].self);
    /* The packets in flight; a free event holds none. */
    for (i = 0; i < N_CALENDARS; i++)
        for (j = 0; j < c->cal[i].capacity; j++)
            Py_VISIT(c->cal[i].pool[j].packet);
    /* What the rows hold; a free row holds nothing. */
    for (j = 0; j < c->rows.capacity; j++) {
        Py_VISIT(c->rows.pool[j].decision);
        Py_VISIT(c->rows.pool[j].candidates);
    }
    return 0;
}

static int
Core_clear(Core *c)
{
    int i, way;
    c->packet_type = NULL; /* it is `o[S_Packet]` */
    c->sizes = 0;          /* it vouches for slots cleared below */
    for (i = 0; i < N_NAMES; i++)
        for (way = 0; way < MEMO_WAYS; way++) {
            Py_CLEAR(c->memo[i][way].self);
            c->memo[i][way].type = NULL;
        }
    for (i = 0; i < N_SLOTS; i++)
        Py_CLEAR(c->o[i]);
    for (i = 0; i < N_COLUMNS; i++)
        PyBuffer_Release(&c->column[i]); /* a no-op on one never taken */
    PyBuffer_Release(&c->peers);
    /* After the slots: unbound, the core takes no new event. */
    for (i = 0; i < N_CALENDARS; i++)
        cal_clear(&c->cal[i]);
    rows_clear(&c->rows);
    c->clock = 0;
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

/* `stock["packet_defaults"]` (see `bind_packet`): `None` or two tuples of
 * one length, at most `MAX_DEFAULTS`. */
static int
check_defaults(Core *c)
{
    PyObject *layout = L(c, packet_defaults), *names, *defaults;
    if (layout == Py_None)
        return 0;
    if (expect_tuple(layout, 2, "stock['packet_defaults']") < 0)
        return -1;
    names = PyTuple_GET_ITEM(layout, 0);
    defaults = PyTuple_GET_ITEM(layout, 1);
    if (!PyTuple_Check(names) || !PyTuple_Check(defaults)
        || PyTuple_GET_SIZE(names) != PyTuple_GET_SIZE(defaults)
        || PyTuple_GET_SIZE(names) > MAX_DEFAULTS) {
        PyErr_SetString(PyExc_ValueError, "stock['packet_defaults'] must be two tuples of "
                                          "one length, at most MAX_DEFAULTS");
        return -1;
    }
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
        || !PyType_Check(L(c, DragonflyTopology)) || !PyType_Check(L(c, RoutingDecision))
        || !PyType_IsSubtype((PyTypeObject *)L(c, RoutingDecision), &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "stock: Packet, ECtNRouting, DragonflyTopology and "
                                         "RoutingDecision must be classes, RoutingDecision a "
                                         "tuple");
        return -1;
    }
    {
        /* Decisions are read (and made) by field position. */
        PyObject *fields = named_attr(L(c, RoutingDecision), "_fields");
        PyObject *expected = Py_BuildValue("(ssssss)", DECISION_FIELDS(DECISION_NAME) NULL);
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
    c->packet_type = (PyTypeObject *)L(c, Packet);
    return check_defaults(c) < 0 || bind_packet(c) < 0 || as_long(L(c, NO_EVENT), &c->no_event) < 0
           ? -1 : 0;
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
        || bind_attr(c, S_shared, routing, "_router_candidates", &PyList_Type) < 0)
        return -1;
    if (!(c->signals & READS_COMBINED))
        return 0;
    if (!c->dragonfly) {
        PyErr_SetString(PyExc_TypeError, "the combined signal reads a Dragonfly's link offsets");
        return -1;
    }
    return bind_long(routing, "_h", &c->h, 0) < 0
           || bind_long(routing, "_first_global_port", &c->first_global, 0) < 0 ? -1 : 0;
}

/* `<what><name>` (`owner.<name>`) through a writable buffer, which must
 * hold C `long long`s (an `array('q')`); anything else is a `TypeError`. */
static int
bind_column(PyObject *owner, const char *what, const char *name, Py_buffer *view)
{
    PyObject *column = named_attr(owner, name);
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
        PyErr_Format(PyExc_TypeError, "%s%s must be an array('q'), got %R", what, name, column);
        Py_DECREF(column);
        return -1;
    }
    Py_DECREF(column); /* the buffer holds it */
    return 0;
}

/* The routing's own topology's sizes (see `sizes_stock`), each read once
 * here, its router-target and peer tables, its radix and its Valiant
 * window: bound where it has a route table and its type resolves every size
 * property to the stock one.  0, -1 on error. */
static int
bind_sizes(Core *c, PyObject *topology)
{
    PyObject *window, *model;
    int z, failed;
    if (L(c, route_table) == Py_None)
        return 0;
    if (!PyByteArray_Check(L(c, route_table))) {
        PyErr_Format(PyExc_TypeError, "_route_table must be a bytearray, got %R",
                     L(c, route_table));
        return -1;
    }
    for (z = 0; z < N_SIZES; z++) {
        cache_entry scratch, *e = lookup(Py_TYPE(topology), name_of[size_names[z]], NULL,
                                         &scratch);
        if (e == NULL)
            return -1;
        if (e->found != c->o[size_slots[z]])
            return 0;
    }
    for (z = 0; z < N_SIZES; z++) {
        if (attr_long(c, topology, size_names[z], &c->size[z]) < 0)
            return -1;
        if (c->size[z] <= 0) {
            PyErr_Format(PyExc_ValueError, "%U must be positive", name_of[size_names[z]]);
            return -1;
        }
    }
    if ((c->nodes_per_region = c->size[Z_NUM_NODES] / c->size[Z_NUM_REGIONS]) == 0) {
        PyErr_SetString(PyExc_ValueError, "a region must hold a node");
        return -1;
    }
    if (bind_attr(c, S_target_table, topology, "_target_table", &PyByteArray_Type) < 0
        || bind_column(topology, "", "_peer_table", &c->peers) < 0
        || bind_long(topology, "_radix", &c->radix, 1) < 0
        || (model = named_attr(topology, "_path_model")) == NULL)
        return -1;
    failed = bind_long(model, "max_minimal_hops", &c->max_minimal_hops, 0);
    Py_DECREF(model);
    if (failed || (window = named_attr(topology, "_valiant_window")) == NULL)
        return -1;
    failed = expect_tuple(window, 3, "_valiant_window");
    for (z = 0; !failed && z < 3; z++)
        failed = field_long(window, z, &c->valiant_window[z]);
    Py_DECREF(window);
    c->sizes = !failed;
    return failed;
}

/* What the stock `Topology` queries of the routing's topology read -- its
 * node map, tables and sizes -- and where it has them a torus's ring table
 * and a `DragonflyTopology`'s link-offset table and global ports per router
 * (`dragonfly` stays 0 on any other topology or without the sizes).
 * Without a route table or with a size property that is not the stock one
 * `sizes` stays 0: every query of the base `Topology` is then a call by
 * name. */
static int
bind_topology(Core *c, PyObject *topology)
{
    int is;
    c->dragonfly = 0;
    c->sizes = 0;
    c->sizes_tag = 0;
    if (bind_attr(c, S_node_rid, topology, "_node_rid", &PyTuple_Type) < 0
        || bind_attr(c, S_route_table, topology, "_route_table", NULL) < 0
        || bind_attr(c, S_ring_info, topology, "_ring_info", NULL) < 0)
        return -1;
    if (L(c, ring_info) != Py_None && expect_list(L(c, ring_info), "_ring_info") < 0)
        return -1;
    if (bind_sizes(c, topology) < 0
        || (is = PyObject_IsInstance(topology, L(c, DragonflyTopology))) < 0)
        return -1;
    if (!is || !c->sizes)
        return bind_attr(c, S_link_offsets, Py_None, "group_link_offsets", NULL);
    if (bind_long(topology, "_h", &c->df_h, 1) < 0
        || bind_attr(c, S_link_offsets, topology, "group_link_offsets", &PyList_Type) < 0)
        return -1;
    c->dragonfly = 1;
    return 0;
}

static int
bind(Core *c, PyObject *args, PyObject *kwargs)
{
    PyObject *st, *routing, *drp, *stock, *size;
    int i, arrival, head, leave, capture;
    long speedup, latency;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError, "Core() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "OOO!(ppp)lliO!:Core", &st, &routing, &PyList_Type, &drp,
                          &arrival, &head, &leave, &speedup, &latency, &capture, &PyDict_Type,
                          &stock))
        return -1;
    Core_clear(c);
    for (i = 0; i < N_STATE; i++) {
        PyObject *member = named_attr(st, state_members[i].name);
        int right;
        if (member == NULL)
            return -1;
        c->o[i] = member;
        right = state_members[i].kind == LIST ? PyList_Check(member) : PyTuple_Check(member);
        if (!right) {
            PyErr_Format(PyExc_TypeError, "st.%s has the wrong type: %R",
                         state_members[i].name, member);
            return -1;
        }
    }
    for (i = 0; i < N_COLUMNS; i++)
        if (bind_column(st, "st.", column_names[i], &c->column[i]) < 0)
            return -1;
    c->o[S_st] = Py_NewRef(st);
    c->o[S_routing] = Py_NewRef(routing);
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
        || bind_double(routing, "_valiant_threshold", &c->valiant_threshold, 1) < 0
        || bind_topology(c, L(c, topology)) < 0)
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
    /* A row per captured head, from the first capture on. */
    if (capture >= 0)
        c->rows.heads = PyList_GET_SIZE(L(c, in_q));
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
 * collector cleared it.  Every entry asks first, and every entry starts a
 * new epoch: the caller's code ran since the last one. */
static int
usable(Core *c)
{
    new_epoch();
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

/* `apply_credits(due)` / `apply_arrivals(due, cycle)` of a list of event
 * tuples: the bodies the router phase runs on what it pops. */
static PyObject *
Core_apply_credits(Core *c, PyObject *events)
{
    due_list due;
    int failed;
    if (!usable(c))
        return NULL;
    due_init(&due);
    failed = due_from_list(CAL_CREDIT, events, &due) < 0 || apply_credits(c, &due) < 0;
    due_free(&due);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_apply_arrivals(Core *c, PyObject *args)
{
    PyObject *events, *cycle_o;
    due_list due;
    int failed;
    if (!usable(c) || !PyArg_ParseTuple(args, "O!O!:apply_arrivals", &PyList_Type, &events,
                                        &PyLong_Type, &cycle_o))
        return NULL;
    due_init(&due);
    failed = due_from_list(CAL_ARRIVAL, events, &due) < 0
             || apply_arrivals(c, &due, cycle_o, NULL) < 0;
    due_free(&due);
    if (failed)
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
    PyObject *t, *cycle_o;
    request req;
    long rid, cycle, port;
    if (!usable(c) || !PyArg_ParseTuple(args, "lO!O!:commit", &rid, &PyTuple_Type, &t,
                                        &PyLong_Type, &cycle_o)
        || as_long(cycle_o, &cycle) < 0 || expect_tuple(t, 5, "a request") < 0
        || as_long(PyTuple_GET_ITEM(t, 0), &req.in_port) < 0
        || as_long(PyTuple_GET_ITEM(t, 1), &req.in_vc) < 0
        || as_long(PyTuple_GET_ITEM(t, 2), &req.out_port) < 0
        || as_long(PyTuple_GET_ITEM(t, 3), &req.size) < 0)
        return NULL;
    /* The decision is the argument's (held by it); the VC is its own. */
    req.decision = PyTuple_GET_ITEM(t, 4);
    req.chosen = NULL;
    if (decision_port_vc(c, req.decision, &port, &req.vc) < 0
        || commit(c, rid, &req, cycle_o, cycle) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_release(Core *c, PyObject *args)
{
    PyObject *events;
    due_list due;
    Py_ssize_t i;
    long rid;
    if (!usable(c) || !PyArg_ParseTuple(args, "O!nl:release", &PyList_Type, &events, &i, &rid))
        return NULL;
    if (i < 0) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    due_init(&due);
    if (due_from_list(CAL_RELEASE, events, &due) < 0)
        i = -1;
    else
        i = release(c, &due, i, rid);
    due_free(&due);
    return i < 0 ? NULL : PyLong_FromSsize_t(i);
}

static PyObject *
Core_alloc_round(Core *c, PyObject *args)
{
    PyObject *requests, *granted = NULL;
    request *reqs;
    long rid, base;
    Py_ssize_t n, i, num_grants, *grants;
    if (!usable(c) || !PyArg_ParseTuple(args, "llO!:alloc_round", &rid, &base, &PyList_Type,
                                        &requests))
        return NULL;
    n = PyList_GET_SIZE(requests);
    /* Requests are read positionally: fields 0 / 1 / 2 are input port,
     * input VC and output port, as in `AllocationRequest`. */
    reqs = PyMem_Malloc((size_t)(n ? n : 1) * (sizeof(request) + sizeof(Py_ssize_t)));
    if (reqs == NULL)
        return PyErr_NoMemory();
    grants = (Py_ssize_t *)(reqs + n);
    for (i = 0; i < n; i++) {
        PyObject *req = PyList_GET_ITEM(requests, i);
        if (field_long(req, 0, &reqs[i].in_port) < 0 || field_long(req, 1, &reqs[i].in_vc) < 0
            || field_long(req, 2, &reqs[i].out_port) < 0)
            goto done;
    }
    num_grants = alloc_round(c, rid, base, n, reqs, grants);
    if (num_grants < 0 || (granted = PyList_New(num_grants)) == NULL)
        goto done;
    for (i = 0; i < num_grants; i++)
        PyList_SET_ITEM(granted, i, Py_NewRef(PyList_GET_ITEM(requests, grants[i])));
done:
    PyMem_Free(reqs);
    return granted;
}

/* The earliest due cycle over the three calendars (`_NO_EVENT`: none). */
static void
calendar_horizon(Core *c, long *horizon)
{
    int i;
    *horizon = c->no_event;
    for (i = 0; i < N_CALENDARS; i++) {
        long due = cal_horizon(&c->cal[i]);
        if (due < *horizon)
            *horizon = due;
    }
}

/* The router half of the warp horizon after a router phase: -1 ("now")
 * while any head is occupied -- allocation retries every cycle -- else
 * `calendar_horizon`. */
static int
router_hint(Core *c, long *hint)
{
    PyObject *active = get_attr(c, c->o[S_st], N_active);
    int on = active == NULL ? -1 : truth(active);
    Py_XDECREF(active);
    if (on > 0)
        *hint = -1;
    else if (on == 0)
        calendar_horizon(c, hint);
    return on < 0 ? -1 : 0;
}

static PyObject *
Core_calendar_horizon(Core *c, PyObject *Py_UNUSED(ignored))
{
    long horizon;
    if (!usable(c))
        return NULL;
    calendar_horizon(c, &horizon);
    return PyLong_FromLong(horizon);
}

/* The calendar named `name` (`calendar_names`), -1 with an error if none. */
static int
calendar_kind(PyObject *name)
{
    int kind;
    for (kind = 0; kind < N_CALENDARS; kind++)
        if (PyUnicode_Check(name) && PyUnicode_CompareWithASCIIString(name, calendar_names[kind]) == 0)
            return kind;
    PyErr_Format(PyExc_ValueError, "no calendar %R: 'credit', 'arrival' or 'release'", name);
    return -1;
}

static PyObject *
Core_schedule(Core *c, PyObject *args)
{
    PyObject *name, *t;
    event parsed, *e;
    long due;
    int kind;
    memset(&parsed, 0, sizeof parsed);
    if (!usable(c) || !PyArg_ParseTuple(args, "UlO!:schedule", &name, &due, &PyTuple_Type, &t)
        || (kind = calendar_kind(name)) < 0 || event_from_tuple(kind, t, &parsed) < 0)
        return NULL;
    if (due < c->clock) {
        PyErr_Format(PyExc_ValueError, "an event due at %ld is behind the calendars' clock (%ld)",
                     due, c->clock);
        return NULL;
    }
    if ((e = cal_push(&c->cal[kind], due, parsed.packet)) == NULL)
        return NULL;
    memcpy(e->f, parsed.f, sizeof e->f);
    Py_RETURN_NONE;
}

/* One calendar as `{due: [event tuples]}`, each due's events in push order
 * (they share a slot, whose list keeps it); a due holding only markers maps
 * to `[]`. */
static PyObject *
calendar_snapshot(const calendar *cal, int kind)
{
    PyObject *snapshot = PyDict_New();
    int32_t slot, i;
    for (slot = 0; snapshot != NULL && cal->live > 0 && slot < WHEEL; slot++)
        for (i = cal->slot[2 * slot]; i >= 0; i = cal->pool[i].next) {
            const event *e = &cal->pool[i];
            PyObject *key = PyLong_FromLong(e->due), *events = NULL, *t = NULL;
            int failed = key == NULL
                         || (events = PyDict_SetDefault(snapshot, key, Py_None)) == NULL;
            if (!failed && events == Py_None) {
                failed = (events = PyList_New(0)) == NULL
                         || PyDict_SetItem(snapshot, key, events) < 0;
                Py_XDECREF(events); /* the snapshot holds it */
            }
            failed = failed
                     || (e->f[0] >= 0 && ((t = event_tuple(kind, e)) == NULL
                                          || PyList_Append(events, t) < 0));
            Py_XDECREF(t);
            Py_XDECREF(key);
            if (failed) {
                Py_CLEAR(snapshot);
                break;
            }
        }
    return snapshot;
}

static PyObject *
Core_calendars(Core *c, PyObject *Py_UNUSED(ignored))
{
    PyObject *calendars;
    int kind;
    if (!usable(c) || (calendars = PyDict_New()) == NULL)
        return NULL;
    for (kind = 0; kind < N_CALENDARS; kind++) {
        PyObject *snapshot = calendar_snapshot(&c->cal[kind], kind);
        if (snapshot == NULL || PyDict_SetItemString(calendars, calendar_names[kind], snapshot) < 0) {
            Py_XDECREF(snapshot);
            Py_DECREF(calendars);
            return NULL;
        }
        Py_DECREF(snapshot);
    }
    return calendars;
}

static PyObject *
Core_in_flight(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (!usable(c))
        return NULL;
    return PyLong_FromSsize_t(c->cal[CAL_ARRIVAL].held + c->cal[CAL_RELEASE].held);
}

/* The row of VC `q` as a dict (`None`: the head is `LIVE`): its kind, its
 * fixed request (`output_port`, `vc`, `size`, `decision`; all `None` for a
 * head that makes no request) and for a gate `minimal`, `candidates` (a list,
 * or a view `(shared tuple, first, dst group, proxy)`), `global_vc`,
 * `local_vc` and `ectn` (`(group, minimal link offset, offset base)` or
 * `None`). */
static PyObject *
Core_row(Core *c, PyObject *q_o)
{
    PyObject *snapshot = NULL, *gate = NULL;
    const row *r;
    row held;
    long q;
    if (!usable(c) || as_long(q_o, &q) < 0)
        return NULL;
    if (q < 0 || q >= PyList_GET_SIZE(L(c, in_q))) {
        PyErr_SetString(PyExc_IndexError, "no VC of this index");
        return NULL;
    }
    if ((r = row_of(c, q)) == NULL)
        Py_RETURN_NONE;
    held = *r; /* an allocation may run a collection, and that any code */
    Py_XINCREF(held.decision);
    Py_XINCREF(held.candidates);
    if (held.decision == NULL)
        snapshot = Py_BuildValue("{s:s,s:O,s:O,s:O,s:O}", "kind", row_kinds[held.kind],
                                 "output_port", Py_None, "vc", Py_None, "size", Py_None,
                                 "decision", Py_None);
    else
        snapshot = Py_BuildValue("{s:s,s:l,s:l,s:l,s:O}", "kind", row_kinds[held.kind],
                                 "output_port", held.out_port, "vc", held.vc, "size", held.size,
                                 "decision", held.decision);
    if (snapshot != NULL && held.kind != ROW_FIXED) {
        gate = Py_BuildValue(
            "{s:l,s:N,s:l,s:l,s:N}", "minimal", held.minimal, "candidates",
            held.view ? Py_BuildValue("(Olll)", held.candidates, held.first, held.dst_group,
                                      (long)held.proxy)
                      : Py_NewRef(held.candidates),
            "global_vc", held.global_vc, "local_vc", held.local_vc, "ectn",
            held.ectn ? Py_BuildValue("(lll)", held.ectn_group, held.ectn_min_offset,
                                      held.ectn_base)
                      : Py_NewRef(Py_None));
        if (gate == NULL || PyDict_Update(snapshot, gate) < 0)
            Py_CLEAR(snapshot);
        Py_XDECREF(gate);
    }
    row_clear(&held);
    return snapshot;
}

static PyObject *
Core_sizeof(Core *c, PyObject *Py_UNUSED(ignored))
{
    size_t size = (size_t)Py_TYPE(c)->tp_basicsize;
    int kind;
    for (kind = 0; kind < N_CALENDARS; kind++) {
        const calendar *cal = &c->cal[kind];
        size += (size_t)cal->capacity * sizeof(event);
        if (cal->slot != NULL)
            size += 2 * WHEEL * sizeof(int32_t);
    }
    size += (size_t)c->rows.capacity * sizeof(row) + (size_t)c->rows.slots * sizeof(int32_t);
    return PyLong_FromSize_t(size);
}

static PyObject *
Core_router_phase(Core *c, PyObject *args)
{
    PyObject *engine, *cycle_o, *metrics = NULL, *obs = NULL, *faults = NULL, *active = NULL;
    PyObject *result = NULL;
    Py_ssize_t counts[3] = {0, 0, 0};
    long cycle, hint;
    if (!usable(c) || !PyArg_ParseTuple(args, "OO!:router_phase", &engine, &PyLong_Type,
                                        &cycle_o)
        || as_long(cycle_o, &cycle) < 0)
        return NULL;
    if ((metrics = get_attr(c, engine, N_metrics)) != NULL
        && (obs = get_attr(c, engine, N_obs)) != NULL
        && (faults = get_attr(c, engine, N_faults)) != NULL
        && (active = get_attr(c, c->o[S_st], N_active)) != NULL
        && expect_list(active, "st.active") == 0
        && router_phase(c, engine, cycle_o, cycle, metrics, obs, faults, active, counts) == 0
        && router_hint(c, &hint) == 0) {
        if (cycle >= c->clock)
            c->clock = cycle + 1;
        result = Py_BuildValue("(nnnl)", counts[0], counts[1], counts[2], hint);
    }
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
    if ((traffic = get_attr(c, engine, N_traffic)) == NULL
        || (network = get_attr(c, engine, N_network)) == NULL
        || (metrics = get_attr(c, engine, N_metrics)) == NULL
        || (nodes = get_attr(c, network, N_nodes)) == NULL
        || generate_phase(c, traffic, nodes, metrics, cycle_o, cycle) < 0
        || (inject_fn = get_attr(c, engine, N__inject)) == NULL)
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
    if ((pending = get_attr(c, routing, N__pending)) == NULL)
        return -1;
    if ((delay = get_attr(c, routing, N_notification_delay)) == NULL
        || (due = PyNumber_Add(cycle_o, delay)) == NULL)
        goto done;
    for (group = 0; group < PyList_GET_SIZE(scanned); group++) {
        PyObject *args[2] = {pending, NULL};
        if ((args[1] = steal_tuple(3, Py_NewRef(due), PyLong_FromSsize_t(group),
                                   Py_NewRef(PyList_GET_ITEM(scanned, group)))) == NULL)
            goto done;
        on = call_void(c, N_append, args, 2);
        Py_DECREF(args[1]);
        if (on < 0)
            goto done;
    }
    if ((table = get_attr(c, routing, N__flags)) == NULL
        || (saturated = get_attr(c, routing, N__saturated_groups)) == NULL)
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
        if ((entry = call_method(c, N_popleft, &pending, 1, NULL)) == NULL)
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
            any = call_void(c, any ? N_add : N_discard, args, 2);
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
    PyObject *scan, *network, *cycle_o, *scanned, *fn;
    Py_ssize_t i, j;
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
    if (stock_hook(c, c->o[S_routing], N_publish_flags, &fn) < 0)
        goto error;
    if (fn == STOCK(c, PiggybackRouting, publish_flags))
        failed = publish_flags(c, cycle_o, scanned);
    else {
        PyObject *call[3] = {c->o[S_routing], cycle_o, scanned};
        failed = call_void(c, N_publish_flags, call, 3);
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
     "apply_credits(due): the credit returns `(rid, g, q, phits)` in the list, as if due now."},
    {"apply_arrivals", (PyCFunction)Core_apply_arrivals, METH_VARARGS,
     "apply_arrivals(due, cycle): the link arrivals `(g, vc, packet)` in the list, as if due "
     "at `cycle`."},
    {"pop_head", (PyCFunction)Core_pop_head, METH_VARARGS,
     "pop_head(rid, port, vc, cycle) -> packet: the input side of a hop."},
    {"commit", (PyCFunction)Core_commit, METH_VARARGS,
     "commit(rid, (in_port, in_vc, out_port, size, decision), cycle): commit a grant and book "
     "its release and arrival."},
    {"release", (PyCFunction)Core_release, METH_VARARGS,
     "release(due, i, rid) -> int: the releases `(g, phits, link-free cycle, packet or None)` "
     "of router `rid` starting at `due[i]`; the index of the next router's."},
    {"alloc_round", (PyCFunction)Core_alloc_round, METH_VARARGS,
     "alloc_round(rid, base, requests) -> grants: one separable allocation."},
    {"router_phase", (PyCFunction)Core_router_phase, METH_VARARGS,
     "router_phase(engine, cycle) -> (delivered, dropped, visited routers, router hint): the "
     "hint is -1 while a head is occupied, else `calendar_horizon()`."},
    {"calendar_horizon", (PyCFunction)Core_calendar_horizon, METH_NOARGS,
     "calendar_horizon() -> int: the earliest due cycle over the three calendars "
     "(`_NO_EVENT`: none)."},
    {"schedule", (PyCFunction)Core_schedule, METH_VARARGS,
     "schedule(calendar, due, event): push an event of that calendar's shape ('credit': "
     "`(rid, g, q, phits)`, 'arrival': `(g, vc, packet)`, 'release': `(g, phits, link-free "
     "cycle, packet or None)`), due no earlier than the next router phase."},
    {"calendars", (PyCFunction)Core_calendars, METH_NOARGS,
     "calendars() -> {'credit' | 'arrival' | 'release': {due: [event tuples]}}: a snapshot, "
     "each due's events in push order (a release marker makes its due's key only)."},
    {"in_flight", (PyCFunction)Core_in_flight, METH_NOARGS,
     "in_flight() -> int: the packets the calendars hold (on a link or leaving by ejection)."},
    {"row", (PyCFunction)Core_row, METH_O,
     "row(q) -> dict or None: a snapshot of the captured row of VC `q` (None: the head is "
     "LIVE, nobody captured it)."},
    {"__sizeof__", (PyCFunction)Core_sizeof, METH_NOARGS,
     "__sizeof__() -> int: the core with its calendars' pools and wheels and its row pool."},
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
    .tp_doc = "Core(st, routing, dropped, (arrival, head, leave hooks), speedup, "
              "router_latency, capture, stock)\n\n"
              "The compiled hop chain over one SoAState (see soa/engine.py); it owns the "
              "calendars and the captured rows of the buffer heads as C structs.",
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
    if ((name_of[N_##n] = PyUnicode_InternFromString(#n)) == NULL) \
        return NULL;
    NAMES(INTERN_NAME)
    PACKET_FIELDS(INTERN_NAME)
    if ((zero = PyLong_FromLong(0)) == NULL || (one = PyLong_FromLong(1)) == NULL
        || (kw_is_global = PyTuple_Pack(1, name_of[N_is_global])) == NULL
        || (kw_packet = PyTuple_Pack(5, name_of[N_pid], name_of[N_src],
                                     name_of[N_dst], name_of[N_size_phits],
                                     name_of[N_creation_cycle])) == NULL
        || (kw_bin = PyTuple_Pack(2, name_of[N_globally_misrouted],
                                  name_of[N_size_phits])) == NULL
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
