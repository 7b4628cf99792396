/* C delivery loop for the array-backed protocol core (repro.core.arraystate),
 * the three kernels that bring a graph into its columns, the one that ranks
 * the ids 0..n-1, and the object loop's tick lane.
 *
 * Compiled on demand by repro/core/arrayloop.py (plain `cc -O2 -shared`,
 * then REPRO_ARRAYLOOP_CFLAGS: CI builds it under ASan + UBSan that way);
 * the build is best-effort and a process without it runs everything on the
 * object loop, so this file must never be required for correctness.
 *
 * This file numbers nothing.  Every encoding it names arrives as a -D flag
 * that arrayloop.defines() derives from the Python tables: per row of
 * messages.WIRE_TABLE the wire tag T_<MSG>, the wire-tuple arity N_<MSG>
 * and each field's offset F_<MSG>_<FIELD> (N_TAGS rows, the widest N_MAX);
 * ST_<STATUS> from node.STATUS_NAMES; V_<VARIANT> from node.VARIANTS;
 * MODE_* from sim.scheduler; RC_* from arrayloop.  A name the tables do not
 * define does not compile, and CI greps this file for a numeric #define of
 * one and for a record field (FLD) or a wire tuple addressed by a literal
 * index.
 *
 * Contract (see arraystate.ArrayCore.run_loop): run() executes steps of the
 * exact same state machine as core/node.py, the reference, over the columnar
 * state, and hands any step it cannot reproduce bit-for-bit back to its
 * caller *before* mutating it:
 *
 *   run(core, pool, mode, rng, stop, cell) -> (code, aux)
 *
 * What a run owns.  Python reads none of this while a call runs, so it
 * lives in plain C arrays (PyMem_Malloc), built when a call enters a fresh
 * core (every node in its __init__ state, only wake tokens pending):
 *  - the pending-token pool: an int64 ring read from `pool` (a list or a
 *    deque of ints), which is emptied once the ring holds it; FIFO pops
 *    its head, LIFO its tail, random mode swaps the drawn slot with the
 *    tail;
 *  - the scheduler's MT19937: the 624 words and index, copied in place out
 *    of the random.Random object (random mode only; configure() checked
 *    the layout), drawn exactly as CPython's getrandbits;
 *  - the channels: endpoints by id, an open-addressed (src, dst) -> id
 *    table and per channel a FIFO of message records, empty at entry; a
 *    new channel is one more native entry;
 *  - the messages (Msgs): one fixed-width record per message in flight --
 *    the tag and the row's fields at their F_<MSG>_<FIELD> offsets, an
 *    id-set field holding its member count -- and one payload arena of
 *    int32 spans, a record's id-set members back to back in field order.
 *    A consumed record goes on a free list and its span is reclaimed by
 *    compaction, so both grow with the peak in flight, not with the
 *    messages sent;
 *  - previous / inbox / deferred: per node a FIFO over the same records
 *    (a record waits in at most one FIFO);
 *  - the rank orders rrank / by_rrank / nrank as int32 arrays, copied from
 *    the IdSpace's array('i') columns;
 *  - the knowledge: per node one open-addressed int32 table (Know) keyed
 *    by id with a class bitmask, built from the node's core.local row
 *    (an IdSlab: node-major int32 members plus n + 1 offsets) and itself
 *    in `more`.  One probe answers the chained more / done / unaware
 *    tests, one scan fills the four `info` payloads;
 *  - a min-heap of repr ranks per node for `more` (the node's own at
 *    entry) and `unexplored` (heap layout is unobservable).
 * A stop at `stop` (RC_LIMIT) suspends the run in a capsule on
 * core.suspended, which holds the pool and rng; only the next call on that
 * core with the same pool, rng and mode resumes it.  Every other exit frees
 * the run, and a core that has run and holds no suspended run is refused
 * (ValueError) before anything loads.  plant(core, src, dst, wire) -> None,
 * the tests' way in mid-run, decodes a wire (wire_decode) onto a suspended
 * run and sends it as Simulator.transmit does, with no self-send check.
 * Wire tuples and frozensets exist only across the seam.  One codec, driven
 * by the field kinds configure() reads off messages.WIRE_TABLE (the rows
 * arraystate._to_message decodes), encodes whatever is still pending at
 * every exit (msgs_store): a previous entry as a (wire, sender) pair, an
 * inbox or deferred entry as a (sender, wire) pair, a per-node column slot
 * None or a list of them.
 *
 * What every exit writes back -- drained, RC_LIMIT, RC_DEOPT / RC_PUMP, and
 * a raising handler alike (sync_out), in this order: the step count into
 * `cell` and the counts; the knowledge tables into fresh array('i') slabs
 * (know_store); the pending messages and the channel endpoints
 * (msgs_store); the pool order into the caller's container; and the words
 * drawn to and the index, copied in place into the rng (gauss_next is never
 * touched).  Each structure goes before the next write-back allocates, so
 * the exit does not stack the slabs it builds on the tables they come
 * from: the (src, dst) -> id table and the rank copies (a resumed run
 * rebuilds them), and the heaps, before know_store; the tables before
 * msgs_store.  RC_LIMIT keeps the heaps and tables; other exits free the
 * rest last.
 * Entry and exit cost O(n + knowledge + channels + pool + pending) plain
 * loads and stores plus two 2.5 KB copies of the generator state.  Both
 * drivers build a core fresh -- from a graph or a just-built simulator --
 * and call once; after a hand-back the reference takes over.  If entry
 * fails nothing has been popped and nothing is written back: the caller's
 * containers are untouched, the pool included, because the pool is
 * emptied only after everything has loaded.
 *
 *   RC_DRAINED: pool drained.
 *   RC_LIMIT: step limit boundary: a counted step just finished with
 *           steps >= stop; the run is suspended, and the driver raises
 *           StepLimitExceeded unless `quiescent()`.
 *   RC_DEOPT: hand-back of a step; aux is the already-popped pool token
 *           (>= 0, a deliver).  The channel head was only *peeked* and the
 *           step was not counted; the only possible prior mutation is the
 *           wake-explore of the destination, which the reference's own
 *           `if not node.awake` guard makes idempotent.  The array core
 *           materializes and Simulator._execute_deliver runs the full step
 *           (and its error paths) on the node objects.
 *   RC_PUMP: hand-back inside a pump; aux is the node whose inbox pump hit a
 *           message the C side cannot handle.  The step was counted and the
 *           message is still at the inbox head; after materialization
 *           DiscoveryNode._pump continues from the current inbox/deferred
 *           state (the pump is resumable by design).
 *
 * cell is a one-element list holding the absolute step count; it is read at
 * entry and written back on *every* exit -- including exceptions -- so the
 * caller's steps_out accounting survives a handler raise mid-run.
 *
 * Parity rules encoded here:
 *  - Only prechecked steps are executed; every ProtocolError path of
 *    core/node.py is unreachable because can_handle() hands it back first
 *    (RC_DEOPT / RC_PUMP), and so are the probe arms.  The one exception is
 *    the self-send guard in emit(), which raises SimNode.send's
 *    SimulationError with the same message.
 *  - Pool, channel, counts and `order` mutations happen in the exact order
 *    the reference handlers produce them.
 *  - Every send builds its own record: a broadcast one per recipient, and
 *    the search exec_search parks in `previous` and forwards is copied,
 *    not shared.  Between entry and exit no Python object is allocated
 *    per message.
 *  - Heap *layout* may differ from heapq's (sift details), but pop order is
 *    value-determined (ranks are unique) and no heap is written back, so
 *    layout is unobservable.  So is the order of a slab's members within a node,
 *    and that is load-bearing: a drawn graph's local slab holds each
 *    node's members in draw order, fill_local's in set iteration order,
 *    and tests/test_graph_columns.py's run differential holds steps,
 *    counts, bits, leaders and components equal between the two.
 *  - Random mode runs the same getrandbits(k) rejection loop
 *    Simulator.run_for inlines (k = the pool size's bit length); a popped
 *    token is never "un-popped" (the draw is spent), it is handed over via
 *    RC_DEOPT.
 *
 * The graph's way in: three entry points that own no state between calls.
 *
 *   draw_graph(rng, n, extra) -> (off, mem)
 *     generators._arborescence followed by generators._add_random_edges,
 *     draw for draw: MT19937 copied in place out of rng (mt_load; rng
 *     exactly a random.Random, else a TypeError before any draw), node
 *     i > 0 under getrandbits(i.bit_length()) redrawn until < i, then up
 *     to budget = min(extra, n(n - 1) - (n - 1)) extra edges u -> v, u and
 *     v each getrandbits(n.bit_length()) redrawn until < n, a loop or an
 *     edge drawn before (a native (u, v) hash) rejected, giving up after
 *     50 * (budget + 1) pairs; copied back in place after (mt_store).  The
 *     edges come back as a fresh CSR slab of array('i') -- n + 1 offsets,
 *     node u's members in the order they were accepted (a stable counting
 *     sort) -- which is exactly the sequence in which the Python loops add
 *     them to u's successor set.  1 <= n < 2**31 and extra >= 0, else a
 *     ValueError before any draw; a tree plus budget past INT32_MAX edges
 *     is an OverflowError, also before any draw.
 *
 * The other two run once per from-graph run, after the column fill and
 * before run() drains core.local.  Neither owns native memory: both write
 * into int32 buffers (array('i')) the caller preallocated, bounds-checked
 * before every store.
 *
 *   fill_local(succ, ids, idx, off, mem) -> None
 *     core.local from KnowledgeGraph._succ: node i's members are idx[v]
 *     for v in succ[ids[i]], in the set's iteration order (IdSlab.of's);
 *     off gets the n + 1 offsets.  idx is a dict, or a mapping under which
 *     an exact int in 0..n-1 is its own index (IdSpace's IdentityIndex):
 *     such a member is read as itself, any other one is idx[v].  mem must
 *     hold exactly the members (graph.n_edges): any other count is a
 *     ValueError, a member idx lacks a KeyError, and nothing is written
 *     past either buffer.  A
 *     drawn graph skips it: its own slab is core.local, read, never
 *     written (the loop's exit replaces core.local's arrays).
 *   component_labels(off, mem, labels) -> count
 *     Weak components of the slab (edge direction ignored), a union-find
 *     run in labels itself: labels[i] ends as the smallest int of i's
 *     component.  Returns the component count; a malformed slab (offsets,
 *     lengths, a member out of range) is a ValueError before any store.
 *
 * And one that IdSpace tries first, in place of sorting reprs:
 *
 *   range_ranks(ids, by, rank, nat) -> bool
 *     Whether the list ids is exactly the ints 0..n-1 in order (exact int
 *     objects: a bool, an int subclass or a float is not one); if so, the
 *     three int32 buffers of n each get the two orders: nat the identity,
 *     by[k] the id whose repr sorts k-th -- 0, then 1..n-1 in the preorder
 *     of their decimal trie (1, 10, 100, ..., 11, ..., 2, ...) -- and
 *     rank[by[k]] = k.  If not, nothing is written.  Buffers of another
 *     length, or n > 2**31, are a ValueError before any store.
 *
 * And one the object loop calls, Simulator.run_for on a random pool:
 *
 *   tick(pool, rng, steps, budget) -> (ticks, index)
 *     run_for's draw and not-due tick.  pool is the scheduler's exact list
 *     of tokens, rng exactly a random.Random, drawn on in place: its words
 *     and index where they lie, no copy (anything else is a TypeError
 *     before any draw).  Each draw is getrandbits(k), redrawn until below
 *     len(pool), k = len(pool).bit_length().  A drawn TimerToken that is
 *     not cancelled or a LifecycleToken, whose due is an int above
 *     steps + ticks + 1, is swapped with the tail and charged a step (a
 *     tick).  Any other token stops the call, index its slot: one the
 *     caller pops and executes, drops (a cancelled timer) or, when a field
 *     is no exact bool or int, examines itself.  index is -1 when the
 *     budget is spent, the pool is empty or 2**20 ticks went by (the
 *     caller's loop head calls again).  gauss_next is never touched.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if ST_ASLEEP != 0
#error "bytearray(n) must be the all-asleep status column (core/node.py)"
#endif

/* ------------------------------------------------------------------ */
/* configure()-provided globals                                        */
/* ------------------------------------------------------------------ */
static PyObject *g_array_type;    /* array.array */
static PyObject *g_sim_error;     /* repro.sim.network.SimulationError */
static PyObject *g_msg_types;     /* tuple of msg_type strings, tag order */
static PyObject *g_tag_objs[N_TAGS];
static PyObject *s_clear, *s_extend, *s_int32;
static PyTypeObject *g_random;  /* random.Random: the one rng type copied */
static PyTypeObject *g_timer;   /* repro.sim.events.TimerToken */
static PyTypeObject *g_lifecycle; /* repro.sim.events.LifecycleToken */
static PyObject *s_due, *s_cancelled;
static int g_configured = 0;

/* The codec's field kinds (messages.WIRE_TABLE), per tag and offset. */
enum { KD_ID, KD_INT, KD_FLAG, KD_VERDICT, KD_IDSET, KD_KINDS };
static const char *const kd_name[KD_KINDS] = {"id", "int", "flag", "verdict",
                                              "id-set"};
static unsigned char g_kind[N_TAGS][N_MAX];
static int g_arity[N_TAGS];
static int g_has_ids[N_TAGS]; /* the row has an id-set field */

#define GREEDY_K_VAL (1LL << 62)

/* ------------------------------------------------------------------ */
/* Native run state: built at a fresh entry, written back at every     */
/* exit, kept by a suspension (the file header says what each costs). */
/* ------------------------------------------------------------------ */
/* The scheduler's pending tokens, a power-of-two ring: a channel id >= 0
 * is a delivery, -1 - node a wake-up.  FIFO pops the head, LIFO the tail,
 * random swaps the drawn slot with the tail (RandomScheduler.pop). */
typedef struct {
    int64_t *buf;
    Py_ssize_t cap, head, len;
} Pool;

/* A node's min-heap of repr ranks (the `more` / `unexplored` choice). */
typedef struct {
    int32_t *v;
    int32_t len, cap;
} Heap;

/* A FIFO of message records, linked through Rec.next (-1: none). */
typedef struct {
    int32_t head, tail;
} Fifo;

/* A message: the wire tuple's slots as int64s (slot 0 the tag, a field at
 * its F_<MSG>_<FIELD> offset, an id-set field its member count), who sent
 * it, the next record of the FIFO it waits in, and the offset of its id-set
 * members in the payload arena (-1: the row has none). */
typedef struct {
    int64_t f[N_MAX];
    int32_t from, next, span;
} Rec;

/* Field fld of record r; a literal fld is a lint failure (CI). */
#define FLD(s, r, fld) ((s)->msg.rec[(r)].f[(fld)])
#define TAG(s, r) ((int)(s)->msg.rec[(r)].f[0])

/* The record arena (free list through next) and the payload arena: a span
 * is [member count, owning record or -1 once freed, members...]. */
typedef struct {
    Rec *rec;
    int32_t cap, used, free;
    int32_t *pay;
    Py_ssize_t pay_cap, pay_used, pay_dead;
} Msgs;

/* Channel endpoints by id with their FIFOs, and the open-addressed
 * (src, dst) -> id table over them: linear probing, at most half full, a
 * slot an id or -1. */
typedef struct {
    int32_t src, dst;
    Fifo q;
} Ends;

typedef struct {
    Ends *ends;
    Py_ssize_t n, ends_cap;
    int32_t *slot;
    Py_ssize_t mask;
    int bits;
} Chans;

/* A node's knowledge: its five sets as one open-addressed table keyed by
 * id, each entry carrying a class bitmask (linear probing, at most 3/4
 * full, a slot 0 or (id + 1) << K_SHIFT | classes).  An entry whose last
 * class goes stays as a class-less placeholder until the table next grows;
 * one probe answers every membership question the handlers chain. */
#define K_LOCAL 1u
#define K_MORE 2u
#define K_DONE 4u
#define K_UNAWARE 8u
#define K_UNEXP 16u
#define K_CLASSES 5
#define K_SHIFT 5
#define K_ALL ((1u << K_CLASSES) - 1)
/* the slab column of each class, in bit order */
static const char *const k_column[K_CLASSES] = {"local", "more", "done",
                                                 "unaware", "unexp"};
/* the count index of a single-class mask */
#define KIX(cls) __builtin_ctz(cls)

typedef struct {
    uint32_t *slot; /* NULL until the first member */
    int32_t used;   /* occupied slots, class-less placeholders included */
    int32_t bits;
    int32_t cnt[K_CLASSES];
} Know;

/* MT19937 exactly as CPython's _random keeps it: 624 words and an index.
 * MTObject mirrors _random.Random's instance layout (Modules/_randommodule.c
 * in 3.10-3.12); configure() holds a seeded generator's words and index to
 * its getstate() before any copy is made, and refuses the module if they
 * differ.  The Python-level state beside them (gauss_next) is the
 * instance's own and never touched. */
#define MT_N 624
#define MT_M 397
typedef struct {
    uint32_t w[MT_N];
    int idx;
} MT;

typedef struct {
    PyObject_HEAD
    int index;
    uint32_t state[MT_N];
} MTObject;

/* ------------------------------------------------------------------ */
/* Run state: every column of the ArrayCore as a direct pointer.       */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject *core;
    Py_ssize_t n;
    /* bytearray-backed columns (object ref + raw pointer) */
    PyObject *status_o, *awake_o, *aw_rel_o, *aw_info_o, *stale_o,
        *variant_o, *greedy_o;
    char *status, *awake, *aw_rel, *aw_info, *stale, *variant, *greedy;
    /* list-backed columns */
    PyObject *ids, *nxt, *phase, *aw_query, *csize;
    PyObject *previous, *inbox, *deferred; /* written back at exit */
    PyObject *iobj;
    PyObject *counts_l, *xtra_l, *order;
    PyObject *slabs[K_CLASSES]; /* the IdSlab of each class, by bit */
    long counts[N_TAGS], xtra[N_TAGS];
    /* native for the length of the run */
    int32_t *rrank, *by_rrank, *nrank;
    Know *know;
    Heap *mheap, *uheap;
    Chans ch;
    Msgs msg;
    Fifo *prev, *inbq, *defq; /* per node: previous / inbox / deferred */
    Pool pool;
    MT mt;
    /* run parameters: core borrowed, pool_obj and rng held (a suspended
     * run keeps them to match the call that resumes it) */
    PyObject *pool_obj, *rng;
    int mode;
    long stop;
    long steps;
    /* scratch for rank sorts and for the ids a query takes */
    struct rpair *scratch;
    Py_ssize_t scratch_cap;
    int32_t *idbuf;
    Py_ssize_t idbuf_cap;
} S;

struct rpair {
    long rank;
    long id;
};

static int
cmp_rpair(const void *a, const void *b)
{
    long ra = ((const struct rpair *)a)->rank;
    long rb = ((const struct rpair *)b)->rank;
    return (ra > rb) - (ra < rb);
}

static struct rpair *
get_scratch(S *s, Py_ssize_t need)
{
    if (need > s->scratch_cap || s->scratch == NULL) {
        Py_ssize_t cap = need < 64 ? 64 : need;
        struct rpair *p = PyMem_Realloc(s->scratch, cap * sizeof(struct rpair));
        if (p == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        s->scratch = p;
        s->scratch_cap = cap;
    }
    return s->scratch;
}

/* getattr / setattr by an interned name.  CPython's type attribute cache
 * keeps a reference to the last name each of its slots looked up, so a
 * fresh string per call (PyObject_GetAttrString) would stay allocated
 * there after the call. */
static PyObject *
attr_get(PyObject *o, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name);
    if (key == NULL)
        return NULL;
    PyObject *v = PyObject_GetAttr(o, key);
    Py_DECREF(key);
    return v;
}

static int
attr_set(PyObject *o, const char *name, PyObject *v)
{
    PyObject *key = PyUnicode_InternFromString(name);
    if (key == NULL)
        return -1;
    int r = PyObject_SetAttr(o, key, v);
    Py_DECREF(key);
    return r;
}

/* Canonical int object for a node/channel index in [0, n). */
#define IOBJ(s, i) PyList_GET_ITEM((s)->iobj, (i))
/* long value of a PyList slot holding an int. */
#define GETL(list, i) PyLong_AsLong(PyList_GET_ITEM((list), (i)))

/* Store an int object (borrowed) into a list slot. */
static int
set_item_obj(PyObject *list, Py_ssize_t i, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(list, i, v);
}

/* Store v into a list slot (a phase: small, so a cached int object). */
static int
set_item_long(PyObject *list, Py_ssize_t i, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    return o == NULL ? -1 : PyList_SetItem(list, i, o);
}

/* ------------------------------------------------------------------ */
/* Message records and id-set spans (see Rec and Msgs)                 */
/* ------------------------------------------------------------------ */
/* A fresh record of `tag`, every field 0, in no FIFO; -1 on error.  May
 * grow the arena: a Rec pointer taken before does not survive the call. */
static int32_t
rec_new(S *s, int tag)
{
    Msgs *a = &s->msg;
    int32_t r = a->free;
    if (r >= 0)
        a->free = a->rec[r].next;
    else {
        if (a->used == a->cap) {
            if (a->cap > INT32_MAX / 2) {
                PyErr_SetString(PyExc_OverflowError, "arrayloop: records");
                return -1;
            }
            int32_t cap = a->cap ? 2 * a->cap : 256;
            Rec *rec = PyMem_Realloc(a->rec, cap * sizeof(Rec));
            if (rec == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            a->rec = rec;
            a->cap = cap;
        }
        r = a->used++;
    }
    Rec *x = &a->rec[r];
    memset(x->f, 0, sizeof(x->f));
    x->f[0] = tag;
    x->from = x->next = x->span = -1;
    return r;
}

/* Record r and its span back to the arenas. */
static void
rec_free(S *s, int32_t r)
{
    Msgs *a = &s->msg;
    Rec *x = &a->rec[r];
    if (x->span >= 0) {
        a->pay[x->span - 1] = -1;
        a->pay_dead += a->pay[x->span - 2] + 2;
    }
    x->next = a->free;
    a->free = r;
}

/* A copy of record r, which has no id-set field; -1 on error. */
static int32_t
rec_copy(S *s, int32_t r)
{
    int32_t c = rec_new(s, TAG(s, r));
    if (c >= 0)
        memcpy(s->msg.rec[c].f, s->msg.rec[r].f, sizeof(s->msg.rec[c].f));
    return c;
}

/* Slide the live spans down over the freed ones. */
static void
span_compact(Msgs *a)
{
    Py_ssize_t q = 0;
    for (Py_ssize_t p = 0; p < a->pay_used;) {
        int32_t len = a->pay[p], owner = a->pay[p + 1];
        if (owner >= 0) {
            memmove(a->pay + q, a->pay + p, (len + 2) * sizeof(int32_t));
            a->rec[owner].span = (int32_t)(q + 2);
            q += len + 2;
        }
        p += len + 2;
    }
    a->pay_used = q;
    a->pay_dead = 0;
}

/* A span of m members for record r (filled by the caller before the next
 * span_new: compaction moves spans, so a member pointer does not survive
 * it); -1 on error. */
static int
span_new(S *s, int32_t r, Py_ssize_t m)
{
    Msgs *a = &s->msg;
    Py_ssize_t need = m + 2;
    if (a->pay_used + need > a->pay_cap) {
        if (2 * a->pay_dead >= a->pay_used)
            span_compact(a);
        if (a->pay_used + need > a->pay_cap) {
            Py_ssize_t cap = a->pay_cap ? 2 * a->pay_cap : 1024;
            while (cap < a->pay_used + need)
                cap *= 2;
            int32_t *pay = cap > INT32_MAX
                               ? NULL
                               : PyMem_Realloc(a->pay, cap * sizeof(int32_t));
            if (pay == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            a->pay = pay;
            a->pay_cap = cap;
        }
    }
    a->pay[a->pay_used] = (int32_t)m;
    a->pay[a->pay_used + 1] = r;
    a->rec[r].span = (int32_t)(a->pay_used + 2);
    a->pay_used += need;
    return 0;
}

/* The members of id-set field fld of record r, FLD(s, r, fld) of them:
 * the row's id-set fields lie back to back in field order. */
static int32_t *
ids_of(S *s, int32_t r, int fld)
{
    const Rec *x = &s->msg.rec[r];
    int64_t at = x->span;
    for (int j = 1; j < fld; j++) {
        if (g_kind[x->f[0]][j] == KD_IDSET)
            at += x->f[j];
    }
    return s->msg.pay + at;
}

static inline void
fifo_push(S *s, Fifo *q, int32_t r)
{
    s->msg.rec[r].next = -1;
    if (q->tail < 0)
        q->head = r;
    else
        s->msg.rec[q->tail].next = r;
    q->tail = r;
}

/* Pop the head of a non-empty FIFO. */
static inline int32_t
fifo_pop(S *s, Fifo *q)
{
    int32_t r = q->head;
    q->head = s->msg.rec[r].next;
    if (q->head < 0)
        q->tail = -1;
    return r;
}

/* (T_CONQUER, i, phase[i]); -1 on error. */
static int32_t
new_conquer(S *s, long i)
{
    int32_t r = rec_new(s, T_CONQUER);
    if (r >= 0) {
        FLD(s, r, F_CONQUER_LEADER) = i;
        FLD(s, r, F_CONQUER_PHASE) = GETL(s->phase, i);
    }
    return r;
}

/* (T_SEARCH, initiator, phase, target, is_new); -1 on error. */
static int32_t
new_search(S *s, long initiator, long long phase, long target, int is_new)
{
    int32_t r = rec_new(s, T_SEARCH);
    if (r >= 0) {
        FLD(s, r, F_SEARCH_INITIATOR) = initiator;
        FLD(s, r, F_SEARCH_PHASE) = phase;
        FLD(s, r, F_SEARCH_TARGET) = target;
        FLD(s, r, F_SEARCH_NEW) = is_new;
    }
    return r;
}

/* (T_RELEASE, i, is_merge, initiator, phase[i]); -1 on error. */
static int32_t
new_release(S *s, long i, int is_merge, long initiator)
{
    int32_t r = rec_new(s, T_RELEASE);
    if (r >= 0) {
        FLD(s, r, F_RELEASE_LEADER) = i;
        FLD(s, r, F_RELEASE_ANSWER) = is_merge;
        FLD(s, r, F_RELEASE_INITIATOR) = initiator;
        FLD(s, r, F_RELEASE_PHASE) = GETL(s->phase, i);
    }
    return r;
}

/* ------------------------------------------------------------------ */
/* Heaps: int32 rank arrays, min-heap order.  A rank may sit in a heap  */
/* after its id left the set (lazy deletion, as in core/node.py).      */
/* ------------------------------------------------------------------ */
static void
heap_sift_down(Heap *h, int32_t pos)
{
    int32_t val = h->v[pos], size = h->len;
    for (;;) {
        int32_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && h->v[child + 1] < h->v[child])
            child += 1;
        if (h->v[child] >= val)
            break;
        h->v[pos] = h->v[child];
        pos = child;
    }
    h->v[pos] = val;
}

static int
heap_push(Heap *h, int32_t val)
{
    if (h->len == h->cap) {
        int32_t cap = h->cap ? 2 * h->cap : 4;
        int32_t *v = PyMem_Realloc(h->v, cap * sizeof(int32_t));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        h->v = v;
        h->cap = cap;
    }
    int32_t pos = h->len++;
    while (pos > 0) {
        int32_t parent = (pos - 1) >> 1;
        if (h->v[parent] <= val)
            break;
        h->v[pos] = h->v[parent];
        pos = parent;
    }
    h->v[pos] = val;
    return 0;
}

/* Pop the min; caller guarantees the heap is non-empty. */
static int32_t
heap_pop(Heap *h)
{
    int32_t top = h->v[0];
    if (--h->len > 0) {
        h->v[0] = h->v[h->len];
        heap_sift_down(h, 0);
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* Knowledge tables (see Know)                                         */
/* ------------------------------------------------------------------ */
static inline uint32_t
know_hash(uint32_t key, int32_t bits)
{
    return (key * 0x9E3779B1u) >> (32 - bits);
}

/* The entry of id, or NULL if the table has none. */
static inline uint32_t *
know_find(const Know *k, long id)
{
    if (k->slot == NULL)
        return NULL;
    uint32_t key = (uint32_t)id + 1, mask = (1u << k->bits) - 1;
    for (uint32_t h = know_hash(key, k->bits);; h = (h + 1) & mask) {
        if (k->slot[h] == 0)
            return NULL;
        if (k->slot[h] >> K_SHIFT == key)
            return &k->slot[h];
    }
}

/* Slots in the table (0 before the first member). */
static inline uint32_t
know_cap(const Know *k)
{
    return k->slot == NULL ? 0 : 1u << k->bits;
}

/* The classes id belongs to (0: none). */
static inline uint32_t
know_has(const Know *k, long id)
{
    uint32_t *e = know_find(k, id);
    return e == NULL ? 0 : *e & K_ALL;
}

/* A table of 2^bits slots holding the entries with a class. */
static int
know_rehash(Know *k, int32_t bits)
{
    uint32_t *slot = PyMem_Calloc((size_t)1 << bits, sizeof(uint32_t));
    if (slot == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    uint32_t mask = (1u << bits) - 1;
    int32_t used = 0;
    for (uint32_t j = 0; j < know_cap(k); j++) {
        uint32_t e = k->slot[j];
        if (e & K_ALL) {
            uint32_t h = know_hash(e >> K_SHIFT, bits);
            while (slot[h] != 0)
                h = (h + 1) & mask;
            slot[h] = e;
            used++;
        }
    }
    PyMem_Free(k->slot);
    k->slot = slot;
    k->bits = bits;
    k->used = used;
    return 0;
}

/* The smallest table (2^bits, bits >= 2) holding `need` entries at most
 * half full. */
static int32_t
know_bits_for(Py_ssize_t need)
{
    int32_t bits = 2;
    while (((Py_ssize_t)1 << bits) < 2 * need)
        bits++;
    return bits;
}

/* The entry of id, inserted class-less if absent; NULL on error.  May grow
 * the table: an entry pointer taken before does not survive the call. */
static uint32_t *
know_slot(Know *k, long id)
{
    uint32_t *e = know_find(k, id);
    if (e != NULL)
        return e;
    if (4 * ((Py_ssize_t)k->used + 1) > 3 * (Py_ssize_t)know_cap(k) &&
        know_rehash(k, know_bits_for((Py_ssize_t)k->used + 1)) < 0)
        return NULL;
    uint32_t key = (uint32_t)id + 1, mask = (1u << k->bits) - 1;
    uint32_t h = know_hash(key, k->bits);
    while (k->slot[h] != 0)
        h = (h + 1) & mask;
    k->slot[h] = key << K_SHIFT;
    k->used++;
    return &k->slot[h];
}

static inline void
know_mark(Know *k, uint32_t *e, uint32_t cls)
{
    if (!(*e & cls)) {
        *e |= cls;
        k->cnt[KIX(cls)]++;
    }
}

static inline void
know_unmark(Know *k, uint32_t *e, uint32_t cls)
{
    if (*e & cls) {
        *e &= ~cls;
        k->cnt[KIX(cls)]--;
    }
}

/* Add id to class cls: 1 if it joined, 0 if it was there, -1 on error. */
static int
know_add(Know *k, long id, uint32_t cls)
{
    uint32_t *e = know_slot(k, id);
    if (e == NULL)
        return -1;
    if (*e & cls)
        return 0;
    know_mark(k, e, cls);
    return 1;
}

/* Remove id from class cls (a no-op if it is not a member). */
static void
know_drop(Know *k, long id, uint32_t cls)
{
    uint32_t *e = know_find(k, id);
    if (e != NULL)
        know_unmark(k, e, cls);
}

/* The id of an occupied entry. */
#define KNOW_ID(e) ((long)((e) >> K_SHIFT) - 1)

/* ------------------------------------------------------------------ */
/* The pool ring                                                       */
/* ------------------------------------------------------------------ */
/* Room for `need` tokens; the ring is unrolled to start at slot 0. */
static int
pool_reserve(Pool *p, Py_ssize_t need)
{
    if (need <= p->cap)
        return 0;
    Py_ssize_t cap = p->cap ? p->cap : 1;
    while (cap < need)
        cap <<= 1;
    int64_t *buf = PyMem_Malloc(cap * sizeof(int64_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t j = 0; j < p->len; j++)
        buf[j] = p->buf[(p->head + j) & (p->cap - 1)];
    PyMem_Free(p->buf);
    p->buf = buf;
    p->cap = cap;
    p->head = 0;
    return 0;
}

static inline int
pool_push(Pool *p, int64_t token)
{
    if (p->len == p->cap && pool_reserve(p, p->len + 1) < 0)
        return -1;
    p->buf[(p->head + p->len++) & (p->cap - 1)] = token;
    return 0;
}

/* The token at pool position `index` (0 the oldest), its slot refilled
 * with the newest: a random draw, or len - 1 for LIFO. */
static inline int64_t
pool_take(Pool *p, Py_ssize_t index)
{
    Py_ssize_t mask = p->cap - 1;
    int64_t *at = &p->buf[(p->head + index) & mask];
    int64_t token = *at;
    *at = p->buf[(p->head + p->len - 1) & mask];
    p->len -= 1;
    return token;
}

static inline int64_t
pool_pop_head(Pool *p)
{
    int64_t token = p->buf[p->head];
    p->head = (p->head + 1) & (p->cap - 1);
    p->len -= 1;
    return token;
}

/* ------------------------------------------------------------------ */
/* The channel table                                                   */
/* ------------------------------------------------------------------ */
static inline Py_ssize_t
chan_hash(const Chans *c, long src, long dst)
{
    uint64_t key = ((uint64_t)(uint32_t)src << 32) | (uint32_t)dst;
    return (Py_ssize_t)((key * 0x9E3779B97F4A7C15ULL) >> (64 - c->bits));
}

static void
chan_insert(Chans *c, int32_t cid)
{
    Py_ssize_t h = chan_hash(c, c->ends[cid].src, c->ends[cid].dst);
    while (c->slot[h] >= 0)
        h = (h + 1) & c->mask;
    c->slot[h] = cid;
}

/* A table of 2^bits slots over the first c->n channels. */
static int
chan_rehash(Chans *c, int bits)
{
    Py_ssize_t cap = (Py_ssize_t)1 << bits;
    int32_t *slot = PyMem_Malloc(cap * sizeof(int32_t));
    if (slot == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(slot, 0xff, cap * sizeof(int32_t)); /* every slot -1 */
    PyMem_Free(c->slot);
    c->slot = slot;
    c->mask = cap - 1;
    c->bits = bits;
    for (Py_ssize_t cid = 0; cid < c->n; cid++)
        chan_insert(c, (int32_t)cid);
    return 0;
}

/* The id of channel (src, dst), or -1 if it was never opened. */
static inline long
chan_find(const Chans *c, long src, long dst)
{
    for (Py_ssize_t h = chan_hash(c, src, dst);; h = (h + 1) & c->mask) {
        int32_t cid = c->slot[h];
        if (cid < 0 || (c->ends[cid].src == src && c->ends[cid].dst == dst))
            return cid;
    }
}

/* Channel (src, dst) as the next id: the endpoints grown by doubling, the
 * table kept at most half full. */
static int
chan_add(Chans *c, long src, long dst)
{
    if (c->n == c->ends_cap) {
        Py_ssize_t cap = c->ends_cap ? 2 * c->ends_cap : 16;
        Ends *ends = PyMem_Realloc(c->ends, cap * sizeof(Ends));
        if (ends == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->ends = ends;
        c->ends_cap = cap;
    }
    if (2 * (c->n + 1) > c->mask + 1 && chan_rehash(c, c->bits + 1) < 0)
        return -1;
    c->ends[c->n].src = (int32_t)src;
    c->ends[c->n].dst = (int32_t)dst;
    c->ends[c->n].q.head = c->ends[c->n].q.tail = -1;
    chan_insert(c, (int32_t)c->n++);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Scheduler draws: CPython's MT19937 and getrandbits, word for word    */
/* ------------------------------------------------------------------ */
static inline uint32_t
mt_word(uint32_t *w, int *idx)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*idx >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (w[kk] & 0x80000000U) | (w[kk + 1] & 0x7fffffffU);
            w[kk] = w[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (w[kk] & 0x80000000U) | (w[kk + 1] & 0x7fffffffU);
            w[kk] = w[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (w[MT_N - 1] & 0x80000000U) | (w[0] & 0x7fffffffU);
        w[MT_N - 1] = w[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *idx = 0;
    }
    y = w[(*idx)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* getrandbits(k) for 1 <= k <= 64 on the words w at index *idx: 32-bit
 * words least significant first, the last word's surplus low bits
 * dropped.  mt_bits draws on a copy (MT), tick in place on the object. */
static inline uint64_t
mt_bits_at(uint32_t *w, int *idx, int k)
{
    if (k <= 32)
        return mt_word(w, idx) >> (32 - k);
    uint64_t lo = mt_word(w, idx);
    return ((uint64_t)(mt_word(w, idx) >> (64 - k)) << 32) | lo;
}

static uint64_t
mt_bits(MT *mt, int k)
{
    return mt_bits_at(mt->w, &mt->idx, k);
}

/* ------------------------------------------------------------------ */
/* Transport                                                           */
/* ------------------------------------------------------------------ */
/* transmit(src, dst, r): record r, in no FIFO, goes to channel (src, dst)
 * and its delivery onto the pool, as Simulator.transmit does; the
 * accounting is counts and first-send order only (bits are folded from
 * them when the loop exits). */
static int
transmit(S *s, long src, long dst, int32_t r)
{
    int tag = TAG(s, r);
    long cid = chan_find(&s->ch, src, dst);
    if (cid < 0) {
        cid = (long)s->ch.n;
        if (chan_add(&s->ch, src, dst) < 0)
            return -1;
    }
    if (s->counts[tag]++ == 0) {
        if (PyList_Append(s->order, g_tag_objs[tag]) < 0)
            return -1;
    }
    s->msg.rec[r].from = (int32_t)src;
    fifo_push(s, &s->ch.ends[cid].q, r);
    return pool_push(&s->pool, cid);
}

/* emit(src, dst, r): SimNode.send followed by transmit, including the
 * self-send SimulationError. */
static int
emit(S *s, long src, long dst, int32_t r)
{
    if (dst == src) {
        PyErr_Format(g_sim_error,
                     "node %R tried to message itself with %R; "
                     "self-interactions must be simulated internally "
                     "(Section 4.1)",
                     PyList_GET_ITEM(s->ids, src),
                     PyTuple_GET_ITEM(g_msg_types, TAG(s, r)));
        return -1;
    }
    return transmit(s, src, dst, r);
}

/* emit, and the id-set's extra ids counted once the send went out (a
 * self-send raises before SimNode.send counts anything). */
static int
emitx(S *s, long src, long dst, int32_t r, long extra_ids)
{
    int tag = TAG(s, r);
    if (emit(s, src, dst, r) < 0)
        return -1;
    s->xtra[tag] += extra_ids;
    return 0;
}

/* A fresh record of a field-less row, sent; -1 on error. */
static int
emit_new(S *s, long src, long dst, int tag)
{
    int32_t r = rec_new(s, tag);
    return r < 0 ? -1 : emit(s, src, dst, r);
}

/* ------------------------------------------------------------------ */
/* Deterministic-choice helpers                                        */
/* ------------------------------------------------------------------ */
static int
add_more(S *s, long i, long w)
{
    int r = know_add(&s->know[i], w, K_MORE);
    return r <= 0 ? r : heap_push(&s->mheap[i], s->rrank[w]);
}

static int
add_unexplored(S *s, long i, long u)
{
    int r = know_add(&s->know[i], u, K_UNEXP);
    return r <= 0 ? r : heap_push(&s->uheap[i], s->rrank[u]);
}

static long
peek_more(S *s, long i)
{
    Heap *heap = &s->mheap[i];
    while (heap->len > 0) {
        long w = s->by_rrank[heap->v[0]];
        if (know_has(&s->know[i], w) & K_MORE)
            return w;
        heap_pop(heap);
    }
    return -1;
}

static long
pop_unexplored(S *s, long i)
{
    Heap *heap = &s->uheap[i];
    Know *k = &s->know[i];
    while (heap->len > 0) {
        long u = s->by_rrank[heap_pop(heap)];
        uint32_t *e = know_find(k, u);
        if (e == NULL || !(*e & K_UNEXP))
            continue;
        know_unmark(k, e, K_UNEXP);
        if (u == i || *e & (K_MORE | K_DONE | K_UNAWARE))
            continue;
        return u;
    }
    return -1;
}

/* Node i's members of class cls into the rank-sorted scratch; returns the
 * member count or -1.  The object path's sorted(members, key=repr): repr
 * ranks are unique, so a sort by rank is that order exactly. */
static Py_ssize_t
collect_rank_sorted(S *s, long i, uint32_t cls)
{
    Know *k = &s->know[i];
    struct rpair *buf = get_scratch(s, k->cnt[KIX(cls)]);
    if (buf == NULL)
        return -1;
    Py_ssize_t m = 0;
    for (uint32_t j = 0; j < know_cap(k); j++) {
        if (k->slot[j] & cls) {
            long v = KNOW_ID(k->slot[j]);
            buf[m].id = v;
            buf[m].rank = s->rrank[v];
            m++;
        }
    }
    qsort(buf, m, sizeof(struct rpair), cmp_rpair);
    return m;
}

/* Room for m ids in s->idbuf. */
static int
idbuf_reserve(S *s, Py_ssize_t m)
{
    if (m > s->idbuf_cap) {
        int32_t *p = PyMem_Realloc(s->idbuf, m * sizeof(int32_t));
        if (p == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->idbuf = p;
        s->idbuf_cap = m;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* EXPLORE (Figure 3)                                                  */
/* ------------------------------------------------------------------ */
/* take_local: up to k of node i's local ids, the rank-smallest, leave
 * `local` for s->idbuf; returns their count (-1 on error), *done_flag 1
 * when the whole local set was taken. */
static Py_ssize_t
take_local(S *s, long i, long long k, int *done_flag)
{
    Know *kn = &s->know[i];
    Py_ssize_t m = 0;
    if ((long long)kn->cnt[KIX(K_LOCAL)] <= k) {
        if (idbuf_reserve(s, kn->cnt[KIX(K_LOCAL)]) < 0)
            return -1;
        for (uint32_t j = 0; j < know_cap(kn); j++) {
            if (kn->slot[j] & K_LOCAL) {
                know_unmark(kn, &kn->slot[j], K_LOCAL);
                s->idbuf[m++] = (int32_t)KNOW_ID(kn->slot[j]);
            }
        }
        *done_flag = 1;
        return m;
    }
    /* k < m: the k rank-smallest members, sorted(local, key=repr)[:k]. */
    if (collect_rank_sorted(s, i, K_LOCAL) < 0 ||
        idbuf_reserve(s, (Py_ssize_t)k) < 0)
        return -1;
    for (; m < (Py_ssize_t)k; m++) {
        long v = s->scratch[m].id;
        know_drop(kn, v, K_LOCAL);
        s->idbuf[m] = (int32_t)v;
    }
    *done_flag = 0;
    return m;
}

static int
ingest_reply(S *s, long i, long source, const int32_t *ids, Py_ssize_t m,
             int done_flag)
{
    Know *k = &s->know[i];
    if (done_flag) {
        uint32_t *e = know_find(k, source);
        if (e != NULL && *e & K_MORE) {
            know_unmark(k, e, K_MORE);
            know_mark(k, e, K_DONE);
        }
    }
    for (Py_ssize_t j = 0; j < m; j++) {
        long fresh = ids[j];
        if (!(know_has(k, fresh) & (K_MORE | K_DONE)) && fresh != i &&
            add_unexplored(s, i, fresh) < 0)
            return -1;
    }
    return 0;
}

static int explore(S *s, long i);

static int
terminate_bounded(S *s, long i)
{
    s->status[i] = ST_TERMINATED;
    Py_ssize_t cnt = collect_rank_sorted(s, i, K_DONE);
    if (cnt < 0)
        return -1;
    for (Py_ssize_t j = 0; j < cnt; j++) {
        long w = s->scratch[j].id;
        if (w != i) {
            int32_t cq = new_conquer(s, i);
            if (cq < 0 || emit(s, i, w, cq) < 0)
                return -1;
        }
    }
    return 0;
}

static int
explore(S *s, long i)
{
    Know *kn = &s->know[i];
    s->status[i] = ST_EXPLORE;
    for (;;) {
        if (s->variant[i] == V_BOUNDED &&
            kn->cnt[KIX(K_DONE)] == GETL(s->csize, i))
            return terminate_bounded(s, i);
        long target = pop_unexplored(s, i);
        if (target >= 0) {
            s->status[i] = ST_WAIT;
            s->aw_rel[i] = 1;
            int32_t r = new_search(s, i, GETL(s->phase, i), target, 0);
            return r < 0 ? -1 : emit(s, i, target, r);
        }
        long cand = peek_more(s, i);
        if (cand < 0) {
            s->status[i] = ST_WAIT;
            s->aw_rel[i] = 0;
            return 0;
        }
        long long k;
        if (s->greedy[i])
            k = GREEDY_K_VAL;
        else
            k = (long long)kn->cnt[KIX(K_MORE)] + kn->cnt[KIX(K_DONE)] + 1;
        if (cand == i) {
            int done_flag;
            Py_ssize_t m = take_local(s, i, k, &done_flag);
            if (m < 0 || ingest_reply(s, i, i, s->idbuf, m, done_flag) < 0)
                return -1;
            continue;
        }
        if (set_item_obj(s->aw_query, i, IOBJ(s, cand)) < 0)
            return -1;
        int32_t r = rec_new(s, T_QUERY);
        if (r < 0)
            return -1;
        FLD(s, r, F_QUERY_K) = k;
        return emit(s, i, cand, r);
    }
}

/* ------------------------------------------------------------------ */
/* Section 6 late-learned ids                                          */
/* ------------------------------------------------------------------ */
static int
absorb_learned_id(S *s, long i, long other)
{
    if (other == i)
        return 0;
    Know *k = &s->know[i];
    if (know_has(k, other) & K_LOCAL)
        return 0;
    int had_reported_all = k->cnt[KIX(K_LOCAL)] == 0;
    if (know_add(k, other, K_LOCAL) < 0)
        return -1;
    if (s->status[i] == ST_INACTIVE) {
        if (had_reported_all) {
            int32_t r = new_search(s, i, 0, i, 1);
            return r < 0 ? -1 : emit(s, i, GETL(s->nxt, i), r);
        }
        return 0;
    }
    uint32_t *e = know_find(k, i);
    if (e != NULL && *e & K_DONE) {
        know_unmark(k, e, K_DONE);
        if (add_more(s, i, i) < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Handlers: record r was delivered to node i by sender.  Each returns  */
/* 1 consumed (the caller frees r), 2 consumed and r kept (parked or    */
/* forwarded), 0 defer, -1 error.                                       */
/* ------------------------------------------------------------------ */
/* Section 4.2 target absorption, in place: the search the reference
 * rebuilds with new=True is r's own. */
static int
absorb_target(S *s, long i, int32_t r)
{
    if (FLD(s, r, F_SEARCH_TARGET) == i) {
        int a = know_add(&s->know[i], (long)FLD(s, r, F_SEARCH_INITIATOR),
                         K_LOCAL);
        if (a < 0)
            return -1;
        if (a)
            FLD(s, r, F_SEARCH_NEW) = 1;
    }
    return 0;
}

static int
leader_on_search(S *s, long i, long sender, int32_t r)
{
    if (absorb_target(s, i, r) < 0)
        return -1;
    long initiator = (long)FLD(s, r, F_SEARCH_INITIATOR);
    long long mphase = FLD(s, r, F_SEARCH_PHASE);
    if (FLD(s, r, F_SEARCH_NEW)) {
        uint32_t *e = know_find(&s->know[i], (long)FLD(s, r, F_SEARCH_TARGET));
        if (e != NULL && *e & K_DONE) {
            know_unmark(&s->know[i], e, K_DONE);
            if (add_more(s, i, (long)FLD(s, r, F_SEARCH_TARGET)) < 0)
                return -1;
        }
    }
    long ph = GETL(s->phase, i);
    int outranks =
        mphase > ph ||
        (mphase == ph && s->nrank[initiator] > s->nrank[i]);
    int32_t rel = new_release(s, i, outranks, initiator);
    if (rel < 0 || emit(s, i, sender, rel) < 0)
        return -1;
    if (outranks) {
        if (s->status[i] == ST_WAIT && s->aw_rel[i])
            s->stale[i] = 1;
        s->status[i] = ST_CONQUERED;
    }
    else if (s->status[i] == ST_WAIT && !s->aw_rel[i]) {
        /* node.py: `self.unexplored or self._peek_more() is not None`,
         * short-circuited. */
        int go = s->know[i].cnt[KIX(K_UNEXP)] > 0 || peek_more(s, i) >= 0;
        if (go && explore(s, i) < 0)
            return -1;
    }
    return 0;
}

static int
consume_own_release(S *s, long i, int32_t r)
{
    long leader = (long)FLD(s, r, F_RELEASE_LEADER);
    int is_merge = FLD(s, r, F_RELEASE_ANSWER) != 0;
    if (s->status[i] == ST_WAIT && s->aw_rel[i]) {
        s->aw_rel[i] = 0;
        if (!is_merge) {
            if (leader == i)
                return explore(s, i);
            if (absorb_learned_id(s, i, leader) < 0)
                return -1;
            s->status[i] = ST_PASSIVE;
            return 0;
        }
        s->status[i] = ST_CONQUEROR;
        s->aw_info[i] = 1;
        return emit_new(s, i, leader, T_MERGE_ACCEPT);
    }
    /* precheck guarantees PASSIVE/CONQUERED/INACTIVE here */
    if (is_merge) {
        if (emit_new(s, i, leader, T_MERGE_FAIL) < 0)
            return -1;
    }
    if (s->stale[i]) {
        s->stale[i] = 0;
        if (absorb_learned_id(s, i, leader) < 0)
            return -1;
    }
    return 0;
}

static int
exec_search(S *s, long i, long sender, int32_t r)
{
    int st = s->status[i];
    if (st == ST_EXPLORE || st == ST_CONQUERED || st == ST_CONQUEROR)
        return 0; /* defer */
    if (st == ST_INACTIVE) {
        /* parked in previous (r.from is the sender); a copy goes on */
        if (absorb_target(s, i, r) < 0)
            return -1;
        int first = s->prev[i].head < 0;
        fifo_push(s, &s->prev[i], r);
        if (first) {
            int32_t c = rec_copy(s, r);
            if (c < 0 || emit(s, i, GETL(s->nxt, i), c) < 0)
                return -1;
        }
        return 2;
    }
    if (st == ST_WAIT || st == ST_PASSIVE)
        return leader_on_search(s, i, sender, r) < 0 ? -1 : 1;
    /* ST_TERMINATED, not outranked (prechecked) */
    if (absorb_target(s, i, r) < 0)
        return -1;
    int32_t rel = new_release(s, i, 0, (long)FLD(s, r, F_SEARCH_INITIATOR));
    return rel < 0 || emit(s, i, sender, rel) < 0 ? -1 : 1;
}

static int
exec_release(S *s, long i, long sender, int32_t r)
{
    if (FLD(s, r, F_RELEASE_INITIATOR) == i)
        return consume_own_release(s, i, r) < 0 ? -1 : 1;
    /* routing arm: INACTIVE with non-empty previous (prechecked) */
    int32_t parked = fifo_pop(s, &s->prev[i]);
    long came_from = s->msg.rec[parked].from;
    rec_free(s, parked);
    long long mphase = FLD(s, r, F_RELEASE_PHASE);
    if (mphase >= GETL(s->phase, i)) {
        long leader = (long)FLD(s, r, F_RELEASE_LEADER);
        if (set_item_obj(s->nxt, i, IOBJ(s, leader)) < 0 ||
            set_item_long(s->phase, i, mphase) < 0)
            return -1;
    }
    if (emit(s, i, came_from, r) < 0) /* r itself goes back */
        return -1;
    if (s->prev[i].head >= 0) {
        int32_t c = rec_copy(s, s->prev[i].head);
        if (c < 0 || emit(s, i, GETL(s->nxt, i), c) < 0)
            return -1;
    }
    return 2;
}

static int
exec_merge_accept(S *s, long i, long sender, int32_t r)
{
    if (set_item_obj(s->nxt, i, IOBJ(s, sender)) < 0)
        return -1;
    Know *k = &s->know[i];
    static const uint32_t cls[4] = {K_MORE, K_DONE, K_UNAWARE, K_UNEXP};
    static const int field[4] = {F_INFO_MORE, F_INFO_DONE, F_INFO_UNAWARE,
                                 F_INFO_UNEXPLORED};
    int32_t info = rec_new(s, T_INFO);
    if (info < 0)
        return -1;
    FLD(s, info, F_INFO_PHASE) = GETL(s->phase, i);
    long extra = 0;
    for (int c = 0; c < 4; c++) {
        FLD(s, info, field[c]) = k->cnt[KIX(cls[c])];
        extra += k->cnt[KIX(cls[c])];
    }
    if (span_new(s, info, extra) < 0)
        return -1;
    /* the four payload sets, filled by one scan of the table */
    int32_t *at[4];
    for (int c = 0; c < 4; c++)
        at[c] = ids_of(s, info, field[c]);
    for (uint32_t j = 0; j < know_cap(k); j++) {
        uint32_t e = k->slot[j];
        for (int c = 0; c < 4; c++) {
            if (e & cls[c])
                *at[c]++ = (int32_t)KNOW_ID(e);
        }
    }
    if (emitx(s, i, sender, info, extra) < 0)
        return -1;
    s->status[i] = ST_INACTIVE;
    return 1;
}

/* Phase update after a merge (Figures 5, 6). */
static int
merge_phase(S *s, long i, int32_t r, long cluster)
{
    long ph = GETL(s->phase, i);
    if (ph == FLD(s, r, F_INFO_PHASE) || cluster >= (1L << (ph + 1)))
        return set_item_long(s->phase, i, ph + 1);
    return 0;
}

static int
merge_with_unaware(S *s, long i, int32_t r)
{
    Know *k = &s->know[i];
    static const int joined[3] = {F_INFO_MORE, F_INFO_DONE, F_INFO_UNAWARE};
    /* Unaware is empty here in every state the protocol reaches (explore,
     * the only way on to a merge, runs once it drains): its members are
     * then the ids that join now, gathered into the scratch as they join,
     * so the broadcast below never scans a table that grows to n. */
    Py_ssize_t fresh = 0, cnt;
    int gather = k->cnt[KIX(K_UNAWARE)] == 0;
    for (int c = 0; c < 3; c++) {
        const int32_t *ids = ids_of(s, r, joined[c]);
        Py_ssize_t m = (Py_ssize_t)FLD(s, r, joined[c]);
        if (gather && get_scratch(s, fresh + m) == NULL)
            return -1;
        for (Py_ssize_t j = 0; j < m; j++) {
            long v = ids[j];
            int a = know_add(k, v, K_UNAWARE);
            if (a < 0)
                return -1;
            if (a && gather) {
                s->scratch[fresh].id = v;
                s->scratch[fresh++].rank = s->rrank[v];
            }
        }
    }
    const int32_t *unexp = ids_of(s, r, F_INFO_UNEXPLORED);
    for (Py_ssize_t j = 0; j < (Py_ssize_t)FLD(s, r, F_INFO_UNEXPLORED); j++) {
        long u = unexp[j];
        if (!(know_has(k, u) & (K_UNAWARE | K_MORE | K_DONE)) && u != i &&
            add_unexplored(s, i, u) < 0)
            return -1;
    }
    long cluster = (long)k->cnt[KIX(K_MORE)] + k->cnt[KIX(K_DONE)] +
                   k->cnt[KIX(K_UNAWARE)];
    if (merge_phase(s, i, r, cluster) < 0)
        return -1;
    if (gather) {
        qsort(s->scratch, fresh, sizeof(struct rpair), cmp_rpair);
        cnt = fresh;
    }
    else if ((cnt = collect_rank_sorted(s, i, K_UNAWARE)) < 0)
        return -1;
    for (Py_ssize_t j = 0; j < cnt; j++) {
        int32_t cq = new_conquer(s, i);
        if (cq < 0 || emit(s, i, s->scratch[j].id, cq) < 0)
            return -1;
    }
    if (k->cnt[KIX(K_UNAWARE)] == 0)
        return explore(s, i);
    return 0;
}

static int
merge_direct(S *s, long i, int32_t r)
{
    Know *k = &s->know[i];
    const int32_t *ids = ids_of(s, r, F_INFO_MORE);
    for (Py_ssize_t j = 0; j < (Py_ssize_t)FLD(s, r, F_INFO_MORE); j++) {
        know_drop(k, ids[j], K_DONE);
        if (add_more(s, i, ids[j]) < 0)
            return -1;
    }
    ids = ids_of(s, r, F_INFO_DONE);
    for (Py_ssize_t j = 0; j < (Py_ssize_t)FLD(s, r, F_INFO_DONE); j++) {
        if (!(know_has(k, ids[j]) & (K_MORE | K_DONE)) &&
            know_add(k, ids[j], K_DONE) < 0)
            return -1;
    }
    ids = ids_of(s, r, F_INFO_UNEXPLORED);
    for (Py_ssize_t j = 0; j < (Py_ssize_t)FLD(s, r, F_INFO_UNEXPLORED); j++) {
        long u = ids[j];
        if (!(know_has(k, u) & (K_MORE | K_DONE)) && u != i &&
            add_unexplored(s, i, u) < 0)
            return -1;
    }
    long cluster = (long)k->cnt[KIX(K_MORE)] + k->cnt[KIX(K_DONE)];
    if (merge_phase(s, i, r, cluster) < 0)
        return -1;
    return explore(s, i);
}

static int
exec_info(S *s, long i, long sender, int32_t r)
{
    s->aw_info[i] = 0;
    if (s->variant[i] == V_GENERIC)
        return merge_with_unaware(s, i, r) < 0 ? -1 : 1;
    return merge_direct(s, i, r) < 0 ? -1 : 1;
}

static int
exec_conquer(S *s, long i, long sender, int32_t r)
{
    long long mphase = FLD(s, r, F_CONQUER_PHASE);
    if (mphase >= GETL(s->phase, i)) {
        long leader = (long)FLD(s, r, F_CONQUER_LEADER);
        if (set_item_obj(s->nxt, i, IOBJ(s, leader)) < 0 ||
            set_item_long(s->phase, i, mphase) < 0)
            return -1;
    }
    int32_t reply = rec_new(s, T_MORE_DONE);
    if (reply < 0)
        return -1;
    FLD(s, reply, F_MORE_DONE_HAS_MORE) = s->know[i].cnt[KIX(K_LOCAL)] > 0;
    return emit(s, i, sender, reply) < 0 ? -1 : 1;
}

static int
exec_more_done(S *s, long i, long sender, int32_t r)
{
    if (s->status[i] == ST_TERMINATED)
        return 1;
    /* CONQUEROR, not awaiting info, sender in unaware (prechecked) */
    Know *k = &s->know[i];
    know_drop(k, sender, K_UNAWARE);
    if (FLD(s, r, F_MORE_DONE_HAS_MORE)) {
        if (add_more(s, i, sender) < 0)
            return -1;
    }
    else if (know_add(k, sender, K_DONE) < 0)
        return -1;
    if (k->cnt[KIX(K_UNAWARE)] == 0)
        return explore(s, i) < 0 ? -1 : 1;
    return 1;
}

static int
exec_query(S *s, long i, long sender, int32_t r)
{
    int done_flag;
    Py_ssize_t m = take_local(s, i, FLD(s, r, F_QUERY_K), &done_flag);
    if (m < 0)
        return -1;
    int32_t reply = rec_new(s, T_QUERY_REPLY);
    if (reply < 0 || span_new(s, reply, m) < 0)
        return -1;
    FLD(s, reply, F_QUERY_REPLY_IDS) = m;
    FLD(s, reply, F_QUERY_REPLY_DONE_FLAG) = done_flag;
    if (m > 0)
        memcpy(ids_of(s, reply, F_QUERY_REPLY_IDS), s->idbuf,
               m * sizeof(int32_t));
    return emitx(s, i, sender, reply, (long)m) < 0 ? -1 : 1;
}

static int
exec_query_reply(S *s, long i, long sender, int32_t r)
{
    if (set_item_long(s->aw_query, i, -1) < 0)
        return -1;
    if (ingest_reply(s, i, sender, ids_of(s, r, F_QUERY_REPLY_IDS),
                     (Py_ssize_t)FLD(s, r, F_QUERY_REPLY_IDS),
                     FLD(s, r, F_QUERY_REPLY_DONE_FLAG) != 0) < 0)
        return -1;
    return explore(s, i) < 0 ? -1 : 1;
}

/* Dispatch an executable record (see the handlers' return codes). */
static int
exec_msg(S *s, long i, long sender, int32_t r)
{
    switch (TAG(s, r)) {
    case T_SEARCH:
        return exec_search(s, i, sender, r);
    case T_RELEASE:
        return exec_release(s, i, sender, r);
    case T_CONQUER:
        return exec_conquer(s, i, sender, r);
    case T_MORE_DONE:
        return exec_more_done(s, i, sender, r);
    case T_QUERY:
        return exec_query(s, i, sender, r);
    case T_QUERY_REPLY:
        return exec_query_reply(s, i, sender, r);
    case T_MERGE_ACCEPT:
        return exec_merge_accept(s, i, sender, r);
    case T_MERGE_FAIL:
        s->status[i] = ST_PASSIVE;
        return 1;
    case T_INFO:
        return exec_info(s, i, sender, r);
    default:
        PyErr_SetString(PyExc_RuntimeError,
                        "arrayloop: exec_msg on unhandleable tag");
        return -1;
    }
}

/* Pure-read precheck: 1 if exec_msg reproduces the reference handler for
 * this record bit-for-bit, 0 if the step must be handed back (raise paths,
 * probes, unknown tags). */
static int
can_handle(S *s, long dst, long src, int32_t r)
{
    int st = s->status[dst];
    switch (TAG(s, r)) {
    case T_QUERY:
        return st == ST_INACTIVE;
    case T_QUERY_REPLY:
        return st == ST_EXPLORE && GETL(s->aw_query, dst) == src;
    case T_SEARCH: {
        if (st != ST_TERMINATED)
            return 1;
        /* terminated leader: handle only the not-outranked reply arm */
        long long mphase = FLD(s, r, F_SEARCH_PHASE);
        long ph = GETL(s->phase, dst);
        if (mphase > ph)
            return 0;
        if (mphase == ph &&
            s->nrank[FLD(s, r, F_SEARCH_INITIATOR)] > s->nrank[dst])
            return 0;
        return 1;
    }
    case T_RELEASE: {
        if (FLD(s, r, F_RELEASE_INITIATOR) == dst) {
            if (st == ST_WAIT)
                return s->aw_rel[dst] != 0;
            return st == ST_PASSIVE || st == ST_CONQUERED ||
                   st == ST_INACTIVE;
        }
        return st == ST_INACTIVE && s->prev[dst].head >= 0;
    }
    case T_MERGE_ACCEPT:
    case T_MERGE_FAIL:
        return st == ST_CONQUERED;
    case T_INFO:
        return st == ST_CONQUEROR && s->aw_info[dst];
    case T_CONQUER:
        return st == ST_INACTIVE;
    case T_MORE_DONE: {
        if (st == ST_TERMINATED)
            return 1;
        if (st != ST_CONQUEROR || s->aw_info[dst])
            return 0;
        return (know_has(&s->know[dst], src) & K_UNAWARE) != 0;
    }
    default:
        return 0; /* probes, unknown tags */
    }
}

/* Execute record r (in no FIFO) at node i: a deferred one joins i's
 * deferred FIFO, a consumed one is freed.  Returns exec_msg's code. */
static int
deliver(S *s, long i, int32_t r)
{
    int rc = exec_msg(s, i, s->msg.rec[r].from, r);
    if (rc == 0)
        fifo_push(s, &s->defq[i], r);
    else if (rc == 1)
        rec_free(s, r);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Inbox pump (deferral replay); 0 done, 1 hand back (RC_PUMP), -1 error */
/* ------------------------------------------------------------------ */
static int
c_pump(S *s, long i)
{
    Fifo *ib = &s->inbq[i], *df = &s->defq[i];
    while (ib->head >= 0) {
        int32_t r = ib->head;
        if (!can_handle(s, i, s->msg.rec[r].from, r))
            return 1;
        fifo_pop(s, ib);
        int df_active = df->head >= 0;
        int b_st = s->status[i], b_rel = s->aw_rel[i], b_info = s->aw_info[i];
        long b_q = GETL(s->aw_query, i);
        int rc = deliver(s, i, r);
        if (rc < 0)
            return -1;
        if (rc > 0 && df_active &&
            (s->status[i] != b_st || s->aw_rel[i] != b_rel ||
             s->aw_info[i] != b_info || GETL(s->aw_query, i) != b_q)) {
            /* consumed with a state change: ib.extendleft(reversed(df)) */
            s->msg.rec[df->tail].next = ib->head;
            if (ib->tail < 0)
                ib->tail = df->tail;
            ib->head = df->head;
            df->head = df->tail = -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Setup, teardown and suspension                                      */
/* ------------------------------------------------------------------ */
/* The knowledge tables, freed; NULL after. */
static void
know_free(S *s)
{
    if (s->know != NULL) {
        for (Py_ssize_t i = 0; i < s->n; i++)
            PyMem_Free(s->know[i].slot);
        PyMem_Free(s->know);
        s->know = NULL;
    }
}

/* The more / unexplored heaps, freed; NULL after. */
static void
heaps_free(S *s)
{
    if (s->mheap != NULL) {
        for (Py_ssize_t i = 0; i < 2 * s->n; i++)
            PyMem_Free(s->mheap[i].v);
        PyMem_Free(s->mheap);
        s->mheap = s->uheap = NULL;
    }
}

/* What no write-back reads and a suspended run rebuilds -- the (src, dst)
 * -> id table and the three rank copies -- freed; NULL after. */
static void
scaffolding_free(S *s)
{
    PyMem_Free(s->ch.slot);
    s->ch.slot = NULL;
    PyMem_Free(s->rrank);
    PyMem_Free(s->by_rrank);
    PyMem_Free(s->nrank);
    s->rrank = s->by_rrank = s->nrank = NULL;
}

/* Everything: the references taken and whatever native memory an exit has
 * not freed yet (the pointers it freed are NULL). */
static void
free_s(S *s)
{
    Py_XDECREF(s->status_o);
    Py_XDECREF(s->awake_o);
    Py_XDECREF(s->aw_rel_o);
    Py_XDECREF(s->aw_info_o);
    Py_XDECREF(s->stale_o);
    Py_XDECREF(s->variant_o);
    Py_XDECREF(s->greedy_o);
    Py_XDECREF(s->ids);
    Py_XDECREF(s->nxt);
    Py_XDECREF(s->phase);
    Py_XDECREF(s->aw_query);
    Py_XDECREF(s->csize);
    Py_XDECREF(s->previous);
    Py_XDECREF(s->inbox);
    Py_XDECREF(s->deferred);
    Py_XDECREF(s->iobj);
    Py_XDECREF(s->counts_l);
    Py_XDECREF(s->xtra_l);
    Py_XDECREF(s->order);
    for (int c = 0; c < K_CLASSES; c++)
        Py_XDECREF(s->slabs[c]);
    Py_XDECREF(s->pool_obj);
    Py_XDECREF(s->rng);
    scaffolding_free(s);
    heaps_free(s);
    know_free(s);
    PyMem_Free(s->ch.ends);
    PyMem_Free(s->msg.rec);
    PyMem_Free(s->msg.pay);
    PyMem_Free(s->prev);
    PyMem_Free(s->pool.buf);
    PyMem_Free(s->scratch);
    PyMem_Free(s->idbuf);
}

static int
fill_s(S *s, PyObject *core)
{
#define FETCH_LIST(field, name)                                           \
    do {                                                                  \
        s->field = attr_get(core, name);                                  \
        if (s->field == NULL)                                             \
            return -1;                                                    \
        if (!PyList_Check(s->field)) {                                    \
            PyErr_SetString(PyExc_TypeError,                              \
                            "arrayloop: core." name " is not a list");    \
            return -1;                                                    \
        }                                                                 \
    } while (0)
#define FETCH_BYTES(field, name)                                          \
    do {                                                                  \
        s->field##_o = attr_get(core, name);                              \
        if (s->field##_o == NULL)                                         \
            return -1;                                                    \
        if (!PyByteArray_Check(s->field##_o)) {                           \
            PyErr_SetString(PyExc_TypeError,                              \
                            "arrayloop: core." name " is not a bytearray"); \
            return -1;                                                    \
        }                                                                 \
        s->field = PyByteArray_AS_STRING(s->field##_o);                   \
    } while (0)

    FETCH_BYTES(status, "status");
    FETCH_BYTES(awake, "awake");
    FETCH_BYTES(aw_rel, "aw_rel");
    FETCH_BYTES(aw_info, "aw_info");
    FETCH_BYTES(stale, "expect_stale");
    FETCH_BYTES(variant, "variant");
    FETCH_BYTES(greedy, "greedy");
    FETCH_LIST(ids, "ids");
    FETCH_LIST(nxt, "nxt");
    FETCH_LIST(phase, "phase");
    FETCH_LIST(aw_query, "aw_query");
    FETCH_LIST(csize, "csize");
    FETCH_LIST(previous, "previous");
    FETCH_LIST(inbox, "inbox");
    FETCH_LIST(deferred, "deferred");
    FETCH_LIST(iobj, "iobj");
    FETCH_LIST(counts_l, "counts");
    FETCH_LIST(xtra_l, "xtra");
    FETCH_LIST(order, "order");
#undef FETCH_LIST
#undef FETCH_BYTES
    for (int c = 0; c < K_CLASSES; c++) {
        if ((s->slabs[c] = attr_get(core, k_column[c])) == NULL)
            return -1;
    }
    s->n = PyList_GET_SIZE(s->iobj);
    if (PyList_GET_SIZE(s->counts_l) != N_TAGS ||
        PyList_GET_SIZE(s->xtra_l) != N_TAGS ||
        PyList_GET_SIZE(s->previous) != s->n ||
        PyList_GET_SIZE(s->inbox) != s->n ||
        PyList_GET_SIZE(s->deferred) != s->n) {
        PyErr_SetString(PyExc_ValueError, "arrayloop: column arity");
        return -1;
    }
    for (int t = 0; t < N_TAGS; t++) {
        s->counts[t] = GETL(s->counts_l, t);
        s->xtra[t] = GETL(s->xtra_l, t);
    }
    return PyErr_Occurred() ? -1 : 0;
}

/* o's buffer, checked to be int32s (array('i')); flags adds to
 * PyBUF_FORMAT (PyBUF_WRITABLE: the caller stores into it); what names it.
 * The caller releases the view, filled or not. */
static int
int32_view(PyObject *o, Py_buffer *b, int flags, const char *what)
{
    if (o == NULL || PyObject_GetBuffer(o, b, PyBUF_FORMAT | flags) < 0)
        return -1;
    if (strcmp(b->format, "i") != 0 || b->itemsize != 4) {
        PyErr_Format(PyExc_ValueError, "arrayloop: core.%s is not int32",
                     what);
        return -1;
    }
    return 0;
}

/* The int32 column core.<name> (an IdSpace rank order: array('i')), n
 * ints each in [0, n), copied. */
static int32_t *
load_ints(S *s, const char *name)
{
    PyObject *col = attr_get(s->core, name);
    Py_buffer b = {0};
    int32_t *a = NULL;
    if (int32_view(col, &b, 0, name) < 0)
        goto done;
    if (b.len != 4 * s->n) {
        PyErr_Format(PyExc_ValueError, "arrayloop: core.%s holds %zd ints, not %zd",
                     name, b.len / 4, s->n);
        goto done;
    }
    a = PyMem_Malloc((s->n + 1) * sizeof(int32_t));
    if (a == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const int32_t *v = b.buf;
    for (Py_ssize_t j = 0; j < s->n; j++) {
        if (v[j] < 0 || v[j] >= s->n) {
            PyErr_Format(PyExc_ValueError, "arrayloop: core.%s[%zd] = %d",
                         name, j, v[j]);
            PyMem_Free(a);
            a = NULL;
            goto done;
        }
        a[j] = v[j];
    }
done:
    PyBuffer_Release(&b);
    Py_XDECREF(col);
    return a;
}

/* The rank copies and the (src, dst) -> id table over the channel ends,
 * for a fresh or a resumed run; a no-op while they are there. */
static int
scaffolding_load(S *s)
{
    if (s->ch.slot != NULL)
        return 0;
    scaffolding_free(s); /* what a failed load left */
    if ((s->rrank = load_ints(s, "rrank")) == NULL ||
        (s->by_rrank = load_ints(s, "by_rrank")) == NULL ||
        (s->nrank = load_ints(s, "nrank")) == NULL)
        return -1;
    return chan_rehash(&s->ch, s->ch.bits ? s->ch.bits : 4);
}

/* One slab's two int32 arrays (IdSlab.off, IdSlab.mem) as buffers, checked
 * to be n + 1 non-decreasing offsets from 0 over members in [0, n).  The
 * caller releases both views, filled or not. */
static int
slab_view(S *s, int c, Py_buffer *off, Py_buffer *mem)
{
    PyObject *o = attr_get(s->slabs[c], "off");
    PyObject *m = o == NULL ? NULL : attr_get(s->slabs[c], "mem");
    int rc = -1;
    if (m == NULL || int32_view(o, off, 0, k_column[c]) < 0 ||
        int32_view(m, mem, 0, k_column[c]) < 0)
        goto done;
    const int32_t *ov = off->buf, *mv = mem->buf;
    Py_ssize_t len = mem->len / 4;
    if (off->len != 4 * (s->n + 1) || ov[0] != 0 || ov[s->n] != len) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: core.%s is not an int32 slab", k_column[c]);
        goto done;
    }
    for (Py_ssize_t i = 0; i < s->n; i++) {
        if (ov[i + 1] < ov[i]) {
            PyErr_Format(PyExc_ValueError, "arrayloop: core.%s offsets",
                         k_column[c]);
            goto done;
        }
    }
    for (Py_ssize_t j = 0; j < len; j++) {
        if (mv[j] < 0 || mv[j] >= s->n) {
            PyErr_Format(PyExc_ValueError, "arrayloop: core.%s member %d",
                         k_column[c], mv[j]);
            goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(o);
    Py_XDECREF(m);
    return rc;
}

/* The knowledge tables and the more heaps of fresh nodes: node i knows the
 * members of its local slab row and itself (more = {i}, its heap the one
 * rank; done, unaware and unexplored empty), inserted in that order. */
static int
know_load(S *s)
{
    Py_buffer off = {0}, mem = {0};
    int rc = -1;
    if (slab_view(s, KIX(K_LOCAL), &off, &mem) < 0)
        goto done;
    s->know = PyMem_Calloc(s->n + 1, sizeof(Know));
    s->mheap = PyMem_Calloc(2 * s->n + 1, sizeof(Heap));
    if (s->know == NULL || s->mheap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s->uheap = s->mheap + s->n;
    const int32_t *ov = off.buf, *mv = mem.buf;
    for (Py_ssize_t i = 0; i < s->n; i++) {
        Know *k = &s->know[i];
        Heap *h = &s->mheap[i];
        if (know_rehash(k, know_bits_for(ov[i + 1] - ov[i] + 1)) < 0)
            goto done;
        for (int32_t j = ov[i]; j < ov[i + 1]; j++) {
            if (know_add(k, mv[j], K_LOCAL) < 0)
                goto done;
        }
        if (know_add(k, i, K_MORE) < 0)
            goto done;
        if ((h->v = PyMem_Malloc(sizeof(int32_t))) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        h->v[0] = s->rrank[i];
        h->cap = h->len = 1;
    }
    rc = 0;
done:
    if (off.obj != NULL)
        PyBuffer_Release(&off);
    if (mem.obj != NULL)
        PyBuffer_Release(&mem);
    return rc;
}

/* The tables back into the slabs: per class a fresh array('i') of members,
 * node-major, and one of n + 1 offsets. */
static int
know_store(S *s)
{
    Py_ssize_t total[K_CLASSES] = {0};
    for (Py_ssize_t i = 0; i < s->n; i++) {
        for (int c = 0; c < K_CLASSES; c++)
            total[c] += s->know[i].cnt[c];
    }
    PyObject *ob[K_CLASSES] = {NULL}, *mb[K_CLASSES] = {NULL};
    int32_t *ov[K_CLASSES], *mv[K_CLASSES];
    int32_t at[K_CLASSES] = {0};
    int rc = -1;
    for (int c = 0; c < K_CLASSES; c++) {
        if (total[c] > INT32_MAX) {
            PyErr_SetString(PyExc_OverflowError, "arrayloop: slab size");
            goto done;
        }
        ob[c] = PyBytes_FromStringAndSize(NULL, 4 * (s->n + 1));
        mb[c] = PyBytes_FromStringAndSize(NULL, 4 * total[c]);
        if (ob[c] == NULL || mb[c] == NULL)
            goto done;
        ov[c] = (int32_t *)PyBytes_AS_STRING(ob[c]);
        mv[c] = (int32_t *)PyBytes_AS_STRING(mb[c]);
    }
    for (Py_ssize_t i = 0; i < s->n; i++) {
        Know *k = &s->know[i];
        for (int c = 0; c < K_CLASSES; c++)
            ov[c][i] = at[c];
        for (uint32_t j = 0; j < know_cap(k); j++) {
            uint32_t e = k->slot[j];
            for (int c = 0; c < K_CLASSES; c++) {
                if (e & 1u << c)
                    mv[c][at[c]++] = (int32_t)KNOW_ID(e);
            }
        }
    }
    for (int c = 0; c < K_CLASSES; c++) {
        ov[c][s->n] = at[c];
        PyObject *o = PyObject_CallFunctionObjArgs(g_array_type, s_int32,
                                                   ob[c], NULL);
        PyObject *m = o == NULL ? NULL
                                : PyObject_CallFunctionObjArgs(
                                      g_array_type, s_int32, mb[c], NULL);
        int bad = m == NULL || attr_set(s->slabs[c], "off", o) < 0 ||
                  attr_set(s->slabs[c], "mem", m) < 0;
        Py_XDECREF(o);
        Py_XDECREF(m);
        if (bad)
            goto done;
    }
    rc = 0;
done:
    for (int c = 0; c < K_CLASSES; c++) {
        Py_XDECREF(ob[c]);
        Py_XDECREF(mb[c]);
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* The codec: wire tuples <-> records, by the kinds of WIRE_TABLE       */
/* ------------------------------------------------------------------ */
/* A fresh record (from -1, in no FIFO) holding wire tuple w; -1 on error. */
static int32_t
wire_decode(S *s, PyObject *w)
{
    long tag = -1;
    if (PyTuple_Check(w) && PyTuple_GET_SIZE(w) > 0)
        tag = PyLong_AsLong(PyTuple_GET_ITEM(w, 0));
    if (tag < 0 || tag >= N_TAGS || PyTuple_GET_SIZE(w) != g_arity[tag]) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "arrayloop: not a wire tuple");
        return -1;
    }
    int32_t r = rec_new(s, (int)tag);
    if (r < 0)
        return -1;
    Py_ssize_t total = 0;
    for (int j = 1; j < g_arity[tag]; j++) {
        PyObject *o = PyTuple_GET_ITEM(w, j);
        if (g_kind[tag][j] != KD_IDSET)
            continue;
        if (!PyAnySet_Check(o)) {
            PyErr_SetString(PyExc_TypeError, "arrayloop: an id-set is not a set");
            goto fail;
        }
        total += PySet_GET_SIZE(o);
    }
    if (g_has_ids[tag] && span_new(s, r, total) < 0)
        goto fail;
    int32_t *at = g_has_ids[tag] ? s->msg.pay + s->msg.rec[r].span : NULL;
    for (int j = 1; j < g_arity[tag]; j++) {
        PyObject *o = PyTuple_GET_ITEM(w, j), *it, *item;
        long long v;
        switch (g_kind[tag][j]) {
        case KD_ID:
            v = PyLong_AsLongLong(o);
            if ((v < 0 || v >= s->n) && !PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "arrayloop: payload id");
            break;
        case KD_INT:
            v = PyLong_AsLongLong(o);
            break;
        case KD_IDSET:
            v = 0;
            if ((it = PyObject_GetIter(o)) == NULL)
                goto fail;
            while ((item = PyIter_Next(it)) != NULL) {
                long x = PyLong_AsLong(item);
                Py_DECREF(item);
                if (x < 0 || x >= s->n || v == PySet_GET_SIZE(o)) {
                    if (!PyErr_Occurred())
                        PyErr_SetString(PyExc_ValueError,
                                        "arrayloop: payload id");
                    break;
                }
                at[v++] = (int32_t)x;
            }
            Py_DECREF(it);
            at += v;
            break;
        default: /* flag, verdict */
            v = PyObject_IsTrue(o);
        }
        if (PyErr_Occurred())
            goto fail;
        FLD(s, r, j) = v;
    }
    return r;
fail:
    rec_free(s, r);
    return -1;
}

/* Record r as its wire tuple: new reference. */
static PyObject *
wire_encode(S *s, int32_t r)
{
    int tag = TAG(s, r);
    PyObject *w = PyTuple_New(g_arity[tag]);
    if (w == NULL)
        return NULL;
    Py_INCREF(g_tag_objs[tag]);
    PyTuple_SET_ITEM(w, 0, g_tag_objs[tag]);
    const int32_t *at = g_has_ids[tag] ? s->msg.pay + s->msg.rec[r].span : NULL;
    for (int j = 1; j < g_arity[tag]; j++) {
        long long v = FLD(s, r, j);
        PyObject *o;
        switch (g_kind[tag][j]) {
        case KD_ID:
            o = IOBJ(s, v);
            Py_INCREF(o);
            break;
        case KD_INT:
            o = PyLong_FromLongLong(v);
            break;
        case KD_IDSET:
            o = PyFrozenSet_New(NULL);
            for (; o != NULL && v > 0; v--) {
                if (PySet_Add(o, IOBJ(s, *at++)) < 0)
                    Py_CLEAR(o);
            }
            break;
        default: /* flag, verdict */
            o = PyBool_FromLong((long)v);
        }
        if (o == NULL) {
            Py_DECREF(w);
            return NULL;
        }
        PyTuple_SET_ITEM(w, j, o);
    }
    return w;
}

/* The shapes a FIFO is written back in: a channel's bare wire tuples, a
 * previous queue's (wire, sender) pairs, an inbox or deferred list's
 * (sender, wire) pairs. */
enum { Q_BARE, Q_WIRE_FIRST, Q_SENDER_FIRST };

/* FIFO q encoded in `shape`: a new list. */
static PyObject *
queue_store(S *s, const Fifo *q, int shape)
{
    PyObject *list = PyList_New(0);
    for (int32_t r = q->head; list != NULL && r >= 0; r = s->msg.rec[r].next) {
        PyObject *w = wire_encode(s, r), *item = w;
        PyObject *from = IOBJ(s, s->msg.rec[r].from);
        if (w != NULL && shape == Q_WIRE_FIRST)
            item = Py_BuildValue("(NO)", w, from);
        else if (w != NULL && shape == Q_SENDER_FIRST)
            item = Py_BuildValue("(ON)", from, w);
        if (item == NULL || PyList_Append(list, item) < 0)
            Py_CLEAR(list);
        Py_XDECREF(item);
    }
    return list;
}

/* Every node's previous / inbox / deferred FIFO, empty. */
static int
fifos_new(S *s)
{
    if ((s->prev = PyMem_Malloc(3 * (s->n + 1) * sizeof(Fifo))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(s->prev, 0xff, 3 * (s->n + 1) * sizeof(Fifo)); /* every FIFO empty */
    s->inbq = s->prev + s->n;
    s->defq = s->inbq + s->n;
    return 0;
}

/* A fresh array('i') of the channels' sources, or destinations. */
static PyObject *
ends_array(const Chans *c, int dst)
{
    PyObject *b = PyBytes_FromStringAndSize(NULL, 4 * c->n);
    if (b == NULL)
        return NULL;
    int32_t *out = (int32_t *)PyBytes_AS_STRING(b);
    for (Py_ssize_t j = 0; j < c->n; j++)
        out[j] = dst ? c->ends[j].dst : c->ends[j].src;
    PyObject *a = PyObject_CallFunctionObjArgs(g_array_type, s_int32, b, NULL);
    Py_DECREF(b);
    return a;
}

/* Every pending message back into the caller's forms (ArrayCore's): a
 * fresh core.chanq of the channels that hold any, fresh chan_src /
 * chan_dst, and each previous / inbox / deferred slot None or a list. */
static int
msgs_store(S *s)
{
    PyObject *chanq = PyDict_New();
    int rc = chanq == NULL ? -1 : 0;
    for (Py_ssize_t cid = 0; rc == 0 && cid < s->ch.n; cid++) {
        if (s->ch.ends[cid].q.head < 0)
            continue;
        PyObject *key = PyLong_FromSsize_t(cid);
        PyObject *list = queue_store(s, &s->ch.ends[cid].q, Q_BARE);
        if (key == NULL || list == NULL || PyDict_SetItem(chanq, key, list) < 0)
            rc = -1;
        Py_XDECREF(key);
        Py_XDECREF(list);
    }
    PyObject *src = rc < 0 ? NULL : ends_array(&s->ch, 0);
    PyObject *dst = src == NULL ? NULL : ends_array(&s->ch, 1);
    if (dst == NULL || attr_set(s->core, "chanq", chanq) < 0 ||
        attr_set(s->core, "chan_src", src) < 0 ||
        attr_set(s->core, "chan_dst", dst) < 0)
        rc = -1;
    Py_XDECREF(chanq);
    Py_XDECREF(src);
    Py_XDECREF(dst);
    PyObject *cols[3] = {s->previous, s->inbox, s->deferred};
    Fifo *fifos[3] = {s->prev, s->inbq, s->defq};
    for (int c = 0; rc == 0 && c < 3; c++) {
        for (Py_ssize_t i = 0; rc == 0 && i < s->n; i++) {
            if (fifos[c][i].head < 0) {
                if (PyList_GET_ITEM(cols[c], i) != Py_None)
                    rc = set_item_obj(cols[c], i, Py_None);
                continue;
            }
            PyObject *list = queue_store(
                s, &fifos[c][i], c == 0 ? Q_WIRE_FIRST : Q_SENDER_FIRST);
            rc = list == NULL ? -1 : PyList_SetItem(cols[c], i, list);
        }
    }
    return rc;
}

/* The caller's pool container (a list or a deque of int tokens). */
static int
pool_load(S *s)
{
    PyObject *seq = PySequence_Fast(s->pool_obj, "arrayloop: pool is not iterable");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    int rc = pool_reserve(&s->pool, n);
    for (Py_ssize_t j = 0; rc == 0 && j < n; j++) {
        long long token = PyLong_AsLongLong(items[j]);
        if (token == -1 && PyErr_Occurred())
            rc = -1;
        else if (token >= s->ch.n || token < -(long long)s->n) {
            PyErr_Format(PyExc_ValueError, "arrayloop: pool token %lld", token);
            rc = -1;
        }
        else
            s->pool.buf[s->pool.len++] = token;
    }
    Py_DECREF(seq);
    return rc;
}

/* The rng's words and index, copied out of the object in place (the
 * layout configure() checked).  Only an exact random.Random: a subclass may
 * draw through its own getrandbits, which a copy would bypass. */
static int
mt_load(MT *mt, PyObject *rng)
{
    if (Py_TYPE(rng) != g_random) {
        PyErr_Format(PyExc_TypeError,
                     "arrayloop: rng must be a random.Random, not %.100s",
                     Py_TYPE(rng)->tp_name);
        return -1;
    }
    const MTObject *r = (const MTObject *)rng;
    if (r->index < 0 || r->index > MT_N) {
        PyErr_SetString(PyExc_ValueError, "arrayloop: rng state index");
        return -1;
    }
    memcpy(mt->w, r->state, sizeof mt->w);
    mt->idx = r->index;
    return 0;
}

/* The words drawn to and the index, copied back in place. */
static void
mt_store(const MT *mt, PyObject *rng)
{
    MTObject *r = (MTObject *)rng;
    memcpy(r->state, mt->w, sizeof r->state);
    r->index = mt->idx;
}

/* The caller's pool container (a list or a deque) set to `tokens`, a list,
 * or emptied for NULL. */
static int
pool_set(S *s, PyObject *tokens)
{
    if (PyList_Check(s->pool_obj))
        return PyList_SetSlice(s->pool_obj, 0, PY_SSIZE_T_MAX, tokens);
    PyObject *r = PyObject_CallMethodNoArgs(s->pool_obj, s_clear);
    if (r != NULL && tokens != NULL) {
        Py_DECREF(r);
        r = PyObject_CallMethodOneArg(s->pool_obj, s_extend, tokens);
    }
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* The pool order back into the caller's container. */
static int
pool_store(S *s)
{
    Pool *p = &s->pool;
    PyObject *tokens = PyList_New(p->len);
    if (tokens == NULL)
        return -1;
    for (Py_ssize_t j = 0; j < p->len; j++) {
        PyObject *t = PyLong_FromLongLong(p->buf[(p->head + j) & (p->cap - 1)]);
        if (t == NULL) {
            Py_DECREF(tokens);
            return -1;
        }
        PyList_SET_ITEM(tokens, j, t);
    }
    int rc = pool_set(s, tokens);
    Py_DECREF(tokens);
    return rc;
}

/* A ValueError for a core that has run (a node awake, a channel, a send
 * counted): a fresh entry builds each node from its __init__ state. */
static int
refuse_run(S *s)
{
    PyObject *src = attr_get(s->core, "chan_src");
    Py_ssize_t ran = src == NULL ? -1 : PyObject_Size(src);
    Py_XDECREF(src);
    for (Py_ssize_t i = 0; ran == 0 && i < s->n; i++)
        ran = s->awake[i];
    for (int t = 0; ran == 0 && t < N_TAGS; t++)
        ran = s->counts[t] != 0;
    if (ran > 0)
        PyErr_SetString(PyExc_ValueError,
                        "arrayloop: the core has run and holds no suspended run");
    return ran ? -1 : 0;
}

/* Everything native for a fresh core: its nodes, no channel, no message,
 * the pool and the rng. */
static int
load_native(S *s)
{
    if (s->n >= (1L << (32 - K_SHIFT)) - 1) { /* an entry holds id + 1 */
        PyErr_SetString(PyExc_ValueError, "arrayloop: too many nodes");
        return -1;
    }
    if (scaffolding_load(s) < 0 || know_load(s) < 0 || fifos_new(s) < 0 ||
        pool_load(s) < 0)
        return -1;
    return s->mode == MODE_RANDOM ? mt_load(&s->mt, s->rng) : 0;
}

/* Write the step count, counts/xtra, the knowledge slabs, the pending
 * messages, the pool order and the rng state back out; preserves any
 * pending exception.  Each native structure is freed as soon as nothing
 * after it reads it: the scaffolding, and unless the run is kept (a stop at
 * `stop`) the heaps, before know_store allocates the slabs; unless it is
 * kept, the knowledge tables before msgs_store encodes. */
static void
sync_out(S *s, PyObject *cell, int keep)
{
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    PyObject *so = PyLong_FromLong(s->steps);
    if (so != NULL)
        PyList_SetItem(cell, 0, so);
    for (int t = 0; t < N_TAGS; t++) {
        PyObject *c = PyLong_FromLong(s->counts[t]);
        if (c != NULL)
            PyList_SetItem(s->counts_l, t, c);
        PyObject *x = PyLong_FromLong(s->xtra[t]);
        if (x != NULL)
            PyList_SetItem(s->xtra_l, t, x);
    }
    scaffolding_free(s);
    if (!keep)
        heaps_free(s);
    int ok = !PyErr_Occurred() && know_store(s) == 0;
    if (!keep)
        know_free(s);
    if (ok && msgs_store(s) == 0 && pool_store(s) == 0 &&
        s->mode == MODE_RANDOM)
        mt_store(&s->mt, s->rng);
    if (et != NULL)
        PyErr_Restore(et, ev, tb); /* a write-back error gives way to it */
}

/* A suspended run: an S in a capsule on core.suspended, which owns it. */
#define SUSPENDED "repro.core._arrayloop.suspended"

static void
suspended_free(PyObject *capsule)
{
    S *kept = PyCapsule_GetPointer(capsule, SUSPENDED);
    free_s(kept);
    PyMem_Free(kept);
}

/* s moved into a capsule on core.suspended (s is left empty); on an error
 * the native state is freed, by the capsule once it holds it. */
static int
suspend(S *s)
{
    S *kept = PyMem_Malloc(sizeof(S));
    PyObject *capsule = kept == NULL ? PyErr_NoMemory()
                                     : PyCapsule_New(kept, SUSPENDED,
                                                     suspended_free);
    if (capsule == NULL) {
        PyMem_Free(kept);
        return -1;
    }
    *kept = *s;
    memset(s, 0, sizeof(S));
    int rc = attr_set(kept->core, "suspended", capsule);
    Py_DECREF(capsule);
    return rc;
}

/* The run suspended in `held` (core.suspended) moved into s and off the
 * core.  Only the call that continues it resumes it: the same core, pool,
 * rng and mode. */
static int
resume(S *s, PyObject *held, PyObject *core, PyObject *pool, int mode,
       PyObject *rng)
{
    S *kept = PyCapsule_GetPointer(held, SUSPENDED);
    if (kept == NULL)
        return -1;
    if (kept->core != core || kept->pool_obj != pool || kept->rng != rng ||
        kept->mode != mode) {
        PyErr_SetString(PyExc_ValueError,
                        "arrayloop: a suspended run resumes on its own core, "
                        "pool, rng and mode");
        return -1;
    }
    if (attr_set(core, "suspended", Py_None) < 0)
        return -1;
    *s = *kept;
    memset(kept, 0, sizeof(S)); /* the capsule frees nothing now */
    return scaffolding_load(s);
}

/* ------------------------------------------------------------------ */
/* run(core, pool, mode, rng, stop, cell)                              */
/* ------------------------------------------------------------------ */
static PyObject *
loop_run(PyObject *self, PyObject *args)
{
    PyObject *core, *pool, *rng, *cell;
    int mode;
    long stop;
    if (!PyArg_ParseTuple(args, "OOiOlO!", &core, &pool, &mode, &rng, &stop,
                          &PyList_Type, &cell))
        return NULL;
    if (!g_configured) {
        PyErr_SetString(PyExc_RuntimeError, "arrayloop: not configured");
        return NULL;
    }
    long steps = GETL(cell, 0);
    PyObject *held = steps == -1 && PyErr_Occurred()
                         ? NULL
                         : attr_get(core, "suspended");
    if (held == NULL)
        return NULL;
    S s;
    memset(&s, 0, sizeof(S));
    int rc;
    if (held != Py_None)
        rc = resume(&s, held, core, pool, mode, rng);
    else {
        s.msg.free = -1; /* no record freed yet */
        s.core = core;
        s.pool_obj = Py_NewRef(pool); /* no other object takes its address */
        s.rng = Py_NewRef(rng);
        s.mode = mode;
        rc = fill_s(&s, core) < 0 || refuse_run(&s) < 0 || load_native(&s) < 0
                 ? -1
                 : 0;
    }
    Py_DECREF(held);
    s.stop = stop;
    /* Nothing is written back unless everything loaded, and until then the
     * caller's containers are only read.  Once the ring holds the pool the
     * caller's container is emptied; every exit refills it (sync_out). */
    if (rc < 0 || pool_set(&s, NULL) < 0) {
        free_s(&s);
        return NULL;
    }
    int code = RC_DRAINED;
    long aux = -1;

    for (;;) {
        Py_ssize_t psz = s.pool.len;
        if (psz == 0) {
            code = RC_DRAINED;
            break;
        }
        long token;
        if (s.mode == MODE_FIFO)
            token = (long)pool_pop_head(&s.pool);
        else if (s.mode == MODE_LIFO)
            token = (long)pool_take(&s.pool, psz - 1);
        else {
            /* the getrandbits rejection loop Simulator.run_for inlines */
            int k = 64 - __builtin_clzll((unsigned long long)psz);
            uint64_t index;
            do
                index = mt_bits(&s.mt, k);
            while (index >= (uint64_t)psz);
            token = (long)pool_take(&s.pool, (Py_ssize_t)index);
        }

        if (token < 0) {
            /* wake token */
            long node = -1 - token;
            steps += 1;
            s.steps = steps;
            if (!s.awake[node]) {
                s.awake[node] = 1;
                if (explore(&s, node) < 0)
                    goto error;
                if (s.inbq[node].head >= 0) {
                    int pr = c_pump(&s, node);
                    if (pr < 0)
                        goto error;
                    if (pr == 1) {
                        code = RC_PUMP;
                        aux = node;
                        goto done;
                    }
                }
            }
        }
        else {
            /* deliver token: peek, wake, precheck, then commit */
            int32_t r = s.ch.ends[token].q.head;
            if (r < 0) {
                PyErr_SetString(PyExc_RuntimeError,
                                "arrayloop: a delivery on an empty channel");
                goto error;
            }
            long dst = s.ch.ends[token].dst;
            long src = s.ch.ends[token].src;
            steps += 1;
            s.steps = steps;
            if (!s.awake[dst]) {
                s.awake[dst] = 1;
                if (explore(&s, dst) < 0)
                    goto error;
            }
            if (s.defq[dst].head >= 0 || s.inbq[dst].head >= 0) {
                /* busy: the message queues behind the inbox, which pumps */
                fifo_pop(&s, &s.ch.ends[token].q);
                fifo_push(&s, &s.inbq[dst], r);
                int pr = c_pump(&s, dst);
                if (pr < 0)
                    goto error;
                if (pr == 1) {
                    code = RC_PUMP;
                    aux = dst;
                    goto done;
                }
            }
            else {
                if (!can_handle(&s, dst, src, r)) {
                    steps -= 1;
                    s.steps = steps;
                    code = RC_DEOPT;
                    aux = token;
                    goto done;
                }
                fifo_pop(&s, &s.ch.ends[token].q);
                if (deliver(&s, dst, r) < 0)
                    goto error;
            }
        }
        if (steps >= s.stop) {
            code = RC_LIMIT;
            break;
        }
    }

done:
error: /* a raising handler left its exception set: it survives sync_out */
    s.steps = steps;
    /* a stop at `stop` suspends the run for a later call to resume; every
     * other exit frees it as it goes */
    int keep = code == RC_LIMIT && !PyErr_Occurred();
    sync_out(&s, cell, keep);
    if (keep && !PyErr_Occurred())
        suspend(&s);
    free_s(&s);
    if (PyErr_Occurred())
        return NULL;
    return Py_BuildValue("il", code, aux);
}

/* plant(core, src, dst, wire) -> None (the file header) */
static PyObject *
loop_plant(PyObject *self, PyObject *args)
{
    PyObject *core, *wire;
    long src, dst;
    if (!PyArg_ParseTuple(args, "OllO", &core, &src, &dst, &wire))
        return NULL;
    PyObject *held = attr_get(core, "suspended");
    if (held == NULL)
        return NULL;
    S *s = held == Py_None ? NULL : PyCapsule_GetPointer(held, SUSPENDED);
    Py_DECREF(held); /* the core holds it */
    if (s == NULL || s->core != core) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "arrayloop: plant needs a run suspended on this core");
        return NULL;
    }
    if (src < 0 || src >= s->n || dst < 0 || dst >= s->n) {
        PyErr_SetString(PyExc_ValueError, "arrayloop: plant endpoint");
        return NULL;
    }
    if (scaffolding_load(s) < 0)
        return NULL;
    int32_t r = wire_decode(s, wire);
    if (r < 0 || transmit(s, src, dst, r) < 0)
        return NULL;
    if (g_has_ids[TAG(s, r)]) /* the span's member count */
        s->xtra[TAG(s, r)] += s->msg.pay[s->msg.rec[r].span - 2];
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* The graph's way in: fill_local, component_labels and draw_graph     */
/* ------------------------------------------------------------------ */
/* The int idx gives member v (fill_local's contract); -1 with an exception
 * set on a miss. */
static long
fill_index(PyObject *idx, PyObject *v, Py_ssize_t n)
{
    if (PyDict_Check(idx)) {
        PyObject *m = PyDict_GetItemWithError(idx, v);
        if (m == NULL && !PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, v);
        return m == NULL ? -1 : PyLong_AsLong(m);
    }
    if (PyLong_CheckExact(v)) {
        int overflow;
        long k = PyLong_AsLongAndOverflow(v, &overflow);
        if (k >= 0 && k < n)
            return k;
    }
    PyObject *m = PyObject_GetItem(idx, v);
    long k = m == NULL ? -1 : PyLong_AsLong(m);
    Py_XDECREF(m);
    return k;
}

/* fill_local: the file header states the contract. */
static PyObject *
loop_fill_local(PyObject *self, PyObject *args)
{
    PyObject *succ, *ids, *idx, *off_o, *mem_o, *result = NULL;
    if (!PyArg_ParseTuple(args, "O!O!OOO", &PyDict_Type, &succ, &PyList_Type,
                          &ids, &idx, &off_o, &mem_o))
        return NULL;
    Py_buffer off = {0}, mem = {0};
    if (int32_view(off_o, &off, PyBUF_WRITABLE, "local") < 0 ||
        int32_view(mem_o, &mem, PyBUF_WRITABLE, "local") < 0)
        goto done;
    Py_ssize_t n = PyList_GET_SIZE(ids), cap = mem.len / 4, pos = 0;
    if (off.len != 4 * (n + 1) || cap > INT32_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: fill_local wants n + 1 offsets, got %zd for "
                     "%zd nodes", off.len / 4, n);
        goto done;
    }
    int32_t *ov = off.buf, *mv = mem.buf;
    ov[0] = 0;
    for (Py_ssize_t i = 0; i < n && PyList_GET_SIZE(ids) == n; i++) {
        PyObject *x = Py_NewRef(PyList_GET_ITEM(ids, i));
        PyObject *row = PyDict_GetItemWithError(succ, x);
        if (row == NULL && !PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, x);
        Py_DECREF(x);
        if (row == NULL)
            goto done;
        PyObject *it = PyObject_GetIter(row), *v;
        if (it == NULL)
            goto done;
        while ((v = PyIter_Next(it)) != NULL) {
            long k = fill_index(idx, v, n);
            Py_DECREF(v);
            if (PyErr_Occurred())
                break;
            if (pos == cap) {
                PyErr_Format(PyExc_ValueError,
                             "arrayloop: fill_local has more members than "
                             "mem's %zd", cap);
                break;
            }
            if (k < 0 || k >= n) {
                PyErr_Format(PyExc_ValueError,
                             "arrayloop: fill_local member %ld", k);
                break;
            }
            mv[pos++] = (int32_t)k;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto done;
        ov[i + 1] = (int32_t)pos;
    }
    if (PyList_GET_SIZE(ids) != n) {
        PyErr_SetString(PyExc_RuntimeError,
                        "arrayloop: fill_local ids changed size");
        goto done;
    }
    if (pos != cap) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: fill_local wrote %zd members into mem's %zd",
                     pos, cap);
        goto done;
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&off);
    PyBuffer_Release(&mem);
    return result;
}

/* The root of x, halving the path; a root is the smallest int of its set
 * and every parent is smaller than its child. */
static inline int32_t
uf_find(int32_t *up, int32_t x)
{
    while (up[x] != x) {
        up[x] = up[up[x]];
        x = up[x];
    }
    return x;
}

/* component_labels: the file header states the contract. */
static PyObject *
loop_component_labels(PyObject *self, PyObject *args)
{
    PyObject *off_o, *mem_o, *lab_o, *result = NULL;
    if (!PyArg_ParseTuple(args, "OOO", &off_o, &mem_o, &lab_o))
        return NULL;
    Py_buffer off = {0}, mem = {0}, lab = {0};
    if (int32_view(off_o, &off, 0, "local") < 0 ||
        int32_view(mem_o, &mem, 0, "local") < 0 ||
        int32_view(lab_o, &lab, PyBUF_WRITABLE, "labels") < 0)
        goto done;
    Py_ssize_t n = lab.len / 4, len = mem.len / 4, count = 0;
    const int32_t *ov = off.buf, *mv = mem.buf;
    int32_t *up = lab.buf;
    int ok = n < INT32_MAX && off.len == 4 * (n + 1) && ov[0] == 0 &&
             ov[n] == len;
    for (Py_ssize_t i = 0; ok && i < n; i++)
        ok = ov[i] <= ov[i + 1];
    for (Py_ssize_t j = 0; ok && j < len; j++)
        ok = mv[j] >= 0 && mv[j] < n;
    if (!ok) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: component_labels wants an int32 slab over "
                     "%zd nodes", n);
        goto done;
    }
    for (int32_t i = 0; i < n; i++)
        up[i] = i;
    for (int32_t i = 0; i < n; i++) {
        int32_t a = uf_find(up, i);
        for (int32_t j = ov[i]; j < ov[i + 1]; j++) {
            int32_t b = uf_find(up, mv[j]);
            if (b < a) {
                up[a] = b;
                a = b;
            }
            else if (a < b)
                up[b] = a;
        }
    }
    /* parents are smaller, so ascending i meets a final parent */
    for (int32_t i = 0; i < n; i++) {
        up[i] = up[up[i]];
        count += up[i] == i;
    }
    result = PyLong_FromSsize_t(count);
done:
    PyBuffer_Release(&off);
    PyBuffer_Release(&mem);
    PyBuffer_Release(&lab);
    return result;
}

/* range_ranks: the file header states the contract. */
static PyObject *
loop_range_ranks(PyObject *self, PyObject *args)
{
    PyObject *ids, *by_o, *rank_o, *nat_o, *result = NULL;
    if (!PyArg_ParseTuple(args, "O!OOO", &PyList_Type, &ids, &by_o, &rank_o,
                          &nat_o))
        return NULL;
    Py_buffer by = {0}, rank = {0}, nat = {0};
    if (int32_view(by_o, &by, PyBUF_WRITABLE, "by_repr_rank") < 0 ||
        int32_view(rank_o, &rank, PyBUF_WRITABLE, "repr_rank") < 0 ||
        int32_view(nat_o, &nat, PyBUF_WRITABLE, "nat_rank") < 0)
        goto done;
    /* exact ints compare without running Python code: ids keeps its size */
    int64_t n = PyList_GET_SIZE(ids), top = n - 1;
    if (by.len != 4 * n || rank.len != 4 * n || nat.len != 4 * n ||
        n > (int64_t)INT32_MAX + 1) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: range_ranks wants three int32 buffers of "
                     "len(ids) = %zd <= 2**31", (Py_ssize_t)n);
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        PyObject *x = PyList_GET_ITEM(ids, i);
        int overflow;
        if (!PyLong_CheckExact(x) ||
            PyLong_AsLongLongAndOverflow(x, &overflow) != i) {
            result = Py_NewRef(Py_False);
            goto done;
        }
    }
    int32_t *bv = by.buf, *rv = rank.buf, *nv = nat.buf;
    for (int64_t i = 0; i < n; i++)
        nv[i] = (int32_t)i;
    /* "0" sorts first: no other id's repr starts with a 0 */
    if (n > 0)
        bv[0] = rv[0] = 0;
    /* then 1..top in the preorder of their decimal trie: down a digit while
     * that stays <= top, else up past the last digits that have no next
     * sibling <= top, and on to the next sibling */
    for (int64_t k = 1, cur = 1; k < n; k++) {
        bv[k] = (int32_t)cur;
        rv[cur] = (int32_t)k;
        if (cur * 10 <= top)
            cur *= 10;
        else {
            while (cur % 10 == 9 || cur + 1 > top)
                cur /= 10;
            cur++;
        }
    }
    result = Py_NewRef(Py_True);
done:
    PyBuffer_Release(&by);
    PyBuffer_Release(&rank);
    PyBuffer_Release(&nat);
    return result;
}

/* draw_graph's accepted edges in draw order, at most cap of them, and the
 * set of them: open addressing on u * n + v + 1 (0: empty), at most half
 * full. */
typedef struct {
    int32_t *u, *v;
    Py_ssize_t len, cap;
    uint64_t *slot;
    int bits;
    uint64_t n;
} Drawn;

static inline uint64_t
drawn_hash(uint64_t key, int bits)
{
    return (key * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
}

/* Room for cap edges over n nodes, all of it up front: the caller knows
 * the most it can accept. */
static int
drawn_alloc(Drawn *d, uint64_t n, Py_ssize_t cap)
{
    d->n = n;
    d->cap = cap > 0 ? cap : 1;
    d->bits = 1;
    while (((Py_ssize_t)1 << d->bits) < 2 * d->cap)
        d->bits++;
    d->u = PyMem_Malloc(d->cap * sizeof(int32_t));
    d->v = PyMem_Malloc(d->cap * sizeof(int32_t));
    d->slot = PyMem_Calloc((size_t)1 << d->bits, sizeof(uint64_t));
    if (d->u == NULL || d->v == NULL || d->slot == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Accept u -> v unless drawn before: 1 if new, 0 if not, -1 on error. */
static int
drawn_add(Drawn *d, uint64_t u, uint64_t v)
{
    uint64_t key = u * d->n + v + 1, mask = ((uint64_t)1 << d->bits) - 1;
    uint64_t h = drawn_hash(key, d->bits);
    for (; d->slot[h] != 0; h = (h + 1) & mask) {
        if (d->slot[h] == key)
            return 0;
    }
    if (d->len == d->cap) {
        PyErr_SetString(PyExc_SystemError,
                        "arrayloop: draw_graph accepted past its budget");
        return -1;
    }
    d->slot[h] = key;
    d->u[d->len] = (int32_t)u;
    d->v[d->len++] = (int32_t)v;
    return 1;
}

/* getrandbits(k) below `below`: generators.py's rejection loop. */
static inline uint64_t
draw_below(MT *mt, int k, uint64_t below)
{
    uint64_t x = mt_bits(mt, k);
    while (x >= below)
        x = mt_bits(mt, k);
    return x;
}

/* The accepted edges as a CSR slab (fresh array('i') offsets and members):
 * a stable counting sort by source, so each node's members keep their
 * draw order. */
static PyObject *
drawn_slab(const Drawn *d)
{
    Py_ssize_t n = (Py_ssize_t)d->n;
    PyObject *ob = PyBytes_FromStringAndSize(NULL, 4 * (n + 1));
    PyObject *mb = PyBytes_FromStringAndSize(NULL, 4 * d->len);
    PyObject *o = NULL, *m = NULL, *result = NULL;
    if (ob == NULL || mb == NULL)
        goto done;
    int32_t *ov = (int32_t *)PyBytes_AS_STRING(ob);
    int32_t *mv = (int32_t *)PyBytes_AS_STRING(mb);
    memset(ov, 0, 4 * (n + 1));
    for (Py_ssize_t e = 0; e < d->len; e++)
        ov[d->u[e] + 1]++;
    for (Py_ssize_t i = 0; i < n; i++)
        ov[i + 1] += ov[i];
    /* ov[u] walks u's run; it ends at u's end, i.e. the next node's start */
    for (Py_ssize_t e = 0; e < d->len; e++)
        mv[ov[d->u[e]]++] = d->v[e];
    memmove(ov + 1, ov, 4 * n);
    ov[0] = 0;
    o = PyObject_CallFunctionObjArgs(g_array_type, s_int32, ob, NULL);
    m = o == NULL ? NULL
                  : PyObject_CallFunctionObjArgs(g_array_type, s_int32, mb, NULL);
    if (m != NULL)
        result = PyTuple_Pack(2, o, m);
done:
    Py_XDECREF(ob);
    Py_XDECREF(mb);
    Py_XDECREF(o);
    Py_XDECREF(m);
    return result;
}

/* draw_graph: the file header states the contract. */
static PyObject *
loop_draw_graph(PyObject *self, PyObject *args)
{
    PyObject *rng, *result = NULL;
    Py_ssize_t n, extra;
    if (!PyArg_ParseTuple(args, "Onn", &rng, &n, &extra))
        return NULL;
    if (n < 1 || n > INT32_MAX || extra < 0) {
        PyErr_Format(PyExc_ValueError,
                     "arrayloop: draw_graph wants 1 <= n < 2**31 and extra "
                     ">= 0, got n=%zd, extra=%zd", n, extra);
        return NULL;
    }
    if (!g_configured) {
        PyErr_SetString(PyExc_RuntimeError, "arrayloop: configure() first");
        return NULL;
    }
    MT mt;
    memset(&mt, 0, sizeof(MT));
    Drawn d;
    memset(&d, 0, sizeof(Drawn));
    /* the most edges it can accept: the tree and the whole budget */
    int64_t missing = (int64_t)n * (n - 1) - (n - 1);
    int64_t budget = extra < missing ? extra : missing, added = 0;
    if (n - 1 + budget > INT32_MAX) {
        PyErr_Format(PyExc_OverflowError,
                     "arrayloop: draw_graph may accept %lld edges, more than "
                     "an int32 slab holds", (long long)(n - 1 + budget));
        return NULL;
    }
    if (drawn_alloc(&d, (uint64_t)n, (Py_ssize_t)(n - 1 + budget)) < 0 ||
        mt_load(&mt, rng) < 0)
        goto done;
    /* _arborescence: node i > 0 under getrandbits(i.bit_length()) < i */
    for (uint64_t i = 1, k = 0; i < d.n; i++) {
        k += (i & (i - 1)) == 0;
        if (drawn_add(&d, draw_below(&mt, (int)k, i), i) < 0)
            goto done;
    }
    /* _add_random_edges: u then v below n, kept when new and not a loop */
    uint64_t max_attempts = 50 * (uint64_t)(budget + 1);
    int kn = 0;
    while (((uint64_t)1 << kn) <= d.n)
        kn++;
    for (uint64_t attempts = 0; added < budget && attempts < max_attempts;) {
        attempts++;
        uint64_t u = draw_below(&mt, kn, d.n), v = draw_below(&mt, kn, d.n);
        if (u != v) {
            int fresh = drawn_add(&d, u, v);
            if (fresh < 0)
                goto done;
            added += fresh;
        }
        if ((attempts & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto done;
    }
    mt_store(&mt, rng);
    result = drawn_slab(&d);
done:
    PyMem_Free(d.u);
    PyMem_Free(d.v);
    PyMem_Free(d.slot);
    return result;
}

/* ------------------------------------------------------------------ */
/* tick(pool, rng, steps, budget): the object loop's not-due tokens     */
/* ------------------------------------------------------------------ */
/* Most calls return at once (a token to execute), so one call ticks at
 * most this many before it hands control back to the interpreter, whose
 * loop head is where a pending signal is seen. */
#define TICK_SLICE (1 << 20)

/* Whether the live timed token tok is not due at step next: 1 if not
 * due, 0 if due, -1 if only the interpreter can tell (a field that is no
 * exact bool or int, or that does not read), with no exception set. */
static int
tick_not_due(PyObject *tok, long long next)
{
    PyObject *due = PyObject_GetAttr(tok, s_due);
    if (due == NULL || !PyLong_CheckExact(due)) {
        PyErr_Clear();
        Py_XDECREF(due);
        return -1;
    }
    int overflow;
    long long at = PyLong_AsLongLongAndOverflow(due, &overflow);
    Py_DECREF(due);
    return overflow ? overflow > 0 : next < at;
}

/* tick: the file header states the contract. */
static PyObject *
loop_tick(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "arrayloop: tick(pool, rng, steps, budget)");
        return NULL;
    }
    PyObject *pool = args[0], *rng = args[1];
    if (!g_configured) {
        PyErr_SetString(PyExc_RuntimeError, "arrayloop: configure() first");
        return NULL;
    }
    if (!PyList_CheckExact(pool) || Py_TYPE(rng) != g_random) {
        PyErr_Format(PyExc_TypeError,
                     "arrayloop: tick wants a list and a random.Random, not "
                     "%.100s and %.100s", Py_TYPE(pool)->tp_name,
                     Py_TYPE(rng)->tp_name);
        return NULL;
    }
    int overflow;
    long long steps = PyLong_AsLongLong(args[2]);
    long long budget = PyLong_AsLongLongAndOverflow(args[3], &overflow);
    if ((steps == -1 || budget == -1) && PyErr_Occurred())
        return NULL;
    if (overflow > 0)
        budget = LLONG_MAX;
    MTObject *r = (MTObject *)rng;
    if (r->index < 0 || r->index > MT_N) {
        PyErr_SetString(PyExc_ValueError, "arrayloop: rng state index");
        return NULL;
    }
    long long ticks = 0, slice = budget < TICK_SLICE ? budget : TICK_SLICE;
    Py_ssize_t index = -1;
    while (ticks < slice) {
        Py_ssize_t size = PyList_GET_SIZE(pool);
        if (size == 0)
            break;
        int k = 64 - __builtin_clzll((unsigned long long)size);
        uint64_t x;
        do
            x = mt_bits_at(r->state, &r->index, k);
        while (x >= (uint64_t)size);
        PyObject *tok = Py_NewRef(PyList_GET_ITEM(pool, x));
        int not_due = 0;
        if (Py_TYPE(tok) == g_timer) {
            PyObject *cancelled = PyObject_GetAttr(tok, s_cancelled);
            if (cancelled == Py_False)
                not_due = tick_not_due(tok, steps + 1);
            else if (cancelled != Py_True) /* no exact bool, or unreadable */
                PyErr_Clear();
            Py_XDECREF(cancelled);
        }
        else if (Py_TYPE(tok) == g_lifecycle)
            not_due = tick_not_due(tok, steps + 1);
        /* The field reads run no Python code on the stock token types; a
         * class patched to run some must not have moved the pool. */
        int moved = PyList_GET_SIZE(pool) != size ||
                    PyList_GET_ITEM(pool, x) != tok;
        Py_DECREF(tok);
        if (moved) {
            PyErr_SetString(PyExc_RuntimeError,
                            "arrayloop: the pool changed under tick");
            return NULL;
        }
        if (not_due != 1) {
            index = (Py_ssize_t)x;
            break;
        }
        /* the tick: the token goes to the tail, one step is charged */
        PyObject **items = ((PyListObject *)pool)->ob_item;
        items[x] = items[size - 1];
        items[size - 1] = tok;
        steps++;
        ticks++;
    }
    return Py_BuildValue("(Ln)", ticks, index);
}

/* ------------------------------------------------------------------ */
/* configure + module                                                  */
/* ------------------------------------------------------------------ */
#define MT_PROBE_SEED 20030713

/* Whether the generators of type `rtype` hold their words and index where
 * MTObject says, `mtype` being the C type whose instance layout that is:
 * NULL with nothing set if so, else the one line why not (a str), or NULL
 * with an exception if the probe itself failed.  The probe is a generator
 * seeded and drawn from once (index 1: neither 0 nor 624), read in place
 * and against its getstate(). */
static PyObject *
mt_layout_refusal(PyObject *rtype, PyObject *mtype)
{
    if (!PyType_Check(rtype) || !PyType_Check(mtype) ||
        !PyType_IsSubtype((PyTypeObject *)rtype, (PyTypeObject *)mtype))
        return PyUnicode_FromString(
            "generator layout: the rng type is not a subtype of the MT19937 "
            "type");
    Py_ssize_t size = ((PyTypeObject *)mtype)->tp_basicsize;
    if (size != (Py_ssize_t)sizeof(MTObject))
        return PyUnicode_FromFormat(
            "generator layout: %s instances are %zd bytes, the in-place copy "
            "expects %zd", ((PyTypeObject *)mtype)->tp_name, size,
            (Py_ssize_t)sizeof(MTObject));
    PyObject *probe = PyObject_CallFunction(rtype, "i", MT_PROBE_SEED);
    PyObject *drawn = probe == NULL
                          ? NULL
                          : PyObject_CallMethod(probe, "getrandbits", "i", 32);
    PyObject *state = drawn == NULL
                          ? NULL
                          : PyObject_CallMethod(probe, "getstate", NULL);
    PyObject *version, *words, *gauss, *result = NULL;
    if (state == NULL ||
        !PyArg_ParseTuple(state, "OO!O;arrayloop: rng.getstate()", &version,
                          &PyTuple_Type, &words, &gauss))
        goto done;
    int same = PyObject_TypeCheck(probe, (PyTypeObject *)mtype) &&
               PyTuple_GET_SIZE(words) == MT_N + 1;
    const MTObject *r = (const MTObject *)probe;
    for (int j = 0; same && j <= MT_N; j++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(words, j));
        if (w == (unsigned long)-1 && PyErr_Occurred())
            goto done;
        same = w == (j < MT_N ? r->state[j] : (unsigned long)r->index);
    }
    result = same ? NULL
                  : PyUnicode_FromString(
                        "generator layout: the words and index read in place "
                        "differ from rng.getstate()'s");
done:
    Py_XDECREF(probe);
    Py_XDECREF(drawn);
    Py_XDECREF(state);
    return result;
}

/* configure(cfg) -> None, or the one line why the generator layout refuses
 * the module (nothing installed then: an earlier configuration stands). */
static PyObject *
loop_configure(PyObject *self, PyObject *args)
{
    PyObject *cfg;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &cfg))
        return NULL;
    PyObject *rtype = PyDict_GetItemString(cfg, "random");
    PyObject *mtype = PyDict_GetItemString(cfg, "mt19937");
    if (rtype == NULL || mtype == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "arrayloop configure: missing random / mt19937");
        return NULL;
    }
    PyObject *refusal = mt_layout_refusal(rtype, mtype);
    if (refusal != NULL || PyErr_Occurred())
        return refusal;
#define CFG(var, key)                                                     \
    do {                                                                  \
        PyObject *v = PyDict_GetItemString(cfg, key);                     \
        if (v == NULL) {                                                  \
            PyErr_Format(PyExc_KeyError,                                  \
                         "arrayloop configure: missing %s", key);         \
            return NULL;                                                  \
        }                                                                 \
        Py_INCREF(v);                                                     \
        Py_XSETREF(var, v);                                               \
    } while (0)
    PyObject *kinds = NULL;
    CFG(g_array_type, "array");
    CFG(g_sim_error, "simulation_error");
    CFG(g_msg_types, "msg_types");
    CFG(kinds, "kinds");
#undef CFG
    int ok = PyTuple_Check(g_msg_types) &&
             PyTuple_GET_SIZE(g_msg_types) == N_TAGS && PyTuple_Check(kinds) &&
             PyTuple_GET_SIZE(kinds) == N_TAGS;
    for (int t = 0; ok && t < N_TAGS; t++) {
        PyObject *row = PyTuple_GET_ITEM(kinds, t);
        ok = PyTuple_Check(row) && PyTuple_GET_SIZE(row) < N_MAX;
        g_arity[t] = ok ? 1 + (int)PyTuple_GET_SIZE(row) : 0;
        g_has_ids[t] = 0;
        for (int j = 1; ok && j < g_arity[t]; j++) {
            const char *name = PyUnicode_AsUTF8(PyTuple_GET_ITEM(row, j - 1));
            int kd = 0;
            while (name != NULL && kd < KD_KINDS && strcmp(name, kd_name[kd]))
                kd++;
            ok = kd < KD_KINDS;
            g_kind[t][j] = (unsigned char)kd;
            g_has_ids[t] |= kd == KD_IDSET;
        }
    }
    Py_DECREF(kinds);
    if (!ok) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "arrayloop configure: msg_types / kinds mismatch");
        return NULL;
    }
    PyObject *timer = PyDict_GetItemString(cfg, "timer");
    PyObject *lifecycle = PyDict_GetItemString(cfg, "lifecycle");
    if (timer == NULL || lifecycle == NULL || !PyType_Check(timer) ||
        !PyType_Check(lifecycle)) {
        PyErr_SetString(PyExc_KeyError,
                        "arrayloop configure: missing timer / lifecycle type");
        return NULL;
    }
    Py_INCREF(rtype);
    Py_XSETREF(g_random, (PyTypeObject *)rtype);
    Py_INCREF(timer);
    Py_XSETREF(g_timer, (PyTypeObject *)timer);
    Py_INCREF(lifecycle);
    Py_XSETREF(g_lifecycle, (PyTypeObject *)lifecycle);
    g_configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef loop_methods[] = {
    {"configure", loop_configure, METH_VARARGS,
     "Install the interpreter-side singletons the loop emits, or say why "
     "the generator layout refuses them."},
    {"run", loop_run, METH_VARARGS,
     "Run steps of the array core; see the file header for the protocol."},
    {"plant", loop_plant, METH_VARARGS,
     "Send a wire tuple on the run suspended on a core, as the loop sends."},
    {"fill_local", loop_fill_local, METH_VARARGS,
     "Write the successor ints of every node into a preallocated slab."},
    {"component_labels", loop_component_labels, METH_VARARGS,
     "Label each node of a slab by its weak component's smallest int."},
    {"range_ranks", loop_range_ranks, METH_VARARGS,
     "Rank the ids 0..n-1, if that is what they are, into three buffers."},
    {"draw_graph", loop_draw_graph, METH_VARARGS,
     "Draw a random weakly connected graph's edges into a CSR slab."},
    {"tick", (PyCFunction)(void (*)(void))loop_tick, METH_FASTCALL,
     "Draw from a random pool, ticking not-due timed tokens to the tail."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef loop_module = {
    PyModuleDef_HEAD_INIT, "_arrayloop",
    "C delivery loop for repro.core.arraystate", -1, loop_methods,
};

PyMODINIT_FUNC
PyInit__arrayloop(void)
{
    for (int t = 0; t < N_TAGS; t++) {
        g_tag_objs[t] = PyLong_FromLong(t);
        if (g_tag_objs[t] == NULL)
            return NULL;
    }
    s_clear = PyUnicode_InternFromString("clear");
    s_extend = PyUnicode_InternFromString("extend");
    s_int32 = PyUnicode_InternFromString("i"); /* array('i') */
    s_due = PyUnicode_InternFromString("due");
    s_cancelled = PyUnicode_InternFromString("cancelled");
    if (s_clear == NULL || s_extend == NULL || s_int32 == NULL ||
        s_due == NULL || s_cancelled == NULL)
        return NULL;
    return PyModule_Create(&loop_module);
}
