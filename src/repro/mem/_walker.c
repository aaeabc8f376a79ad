/* Compiled hierarchy walker: the L1/L2 walk of repro.mem.hierarchy in C.
 *
 * Compiled on demand by repro.mem.cwalker with the system C compiler
 * and loaded through ctypes; when no compiler is available the
 * compiled engine runs the reference walk in hierarchy.py instead (and
 * warns).  `walker_state_new` builds a persistent state handle that
 * keeps the L1s of every CPU, the shared L2 (set-associative LRU/FIFO
 * *or* the way-managed column cache), the DRAM bank timers and the
 * shared-bus demand model resident in C between calls, so batches of
 * any size -- and whole schedule segments of consecutive deterministic
 * ops, via `walk_segment` -- run without re-marshalling.
 *
 * `walk_segment` takes each entry's raw access stream -- a pointer to
 * its int64 byte addresses and one to its 0/1 store flags, plus the
 * access count and the issuing task's owner id; nothing is copied or
 * concatenated on the Python side.  A pre-pass (`coalesce_entry`)
 * run-length encodes every entry on its own (runs never merge across
 * entries) into a run buffer the handle owns -- line, length,
 * any-store / all-store flags and owner per run; it grows
 * geometrically and is freed with the handle.  A run's owner is looked
 * up from its line base address (`line << line_shift`) in the sorted
 * OS interval table passed with the call (bases, ends, owners; paper
 * 4.2), falling back to the entry's task owner -- exactly the
 * reference walk's `resolve(line << line_shift, owner)`.
 *
 * The replay body (`walk_entry_runs`) then executes, run by run,
 * exactly the state sequence of the reference engine:
 *
 *   L1 probe -> (miss) L1 fill + eviction -> dirty-victim writeback
 *   probe into the L2 -> L2 probe (demand or store fill) -> L2 fill +
 *   eviction -> DRAM bank timing.
 *
 * Cache state lives in flat arrays (one row of `ways` slots per set,
 * slot 0 = MRU, parallel owner/dirty arrays, per-set lengths); the
 * caller rebuilds the Python-side dict/list state from the mutated
 * arrays when it needs that view.  Set indices are computed here too:
 * `line & mask`, or the per-owner set-translation table of a
 * set-partitioned L2.
 *
 * Per-owner statistics are kept here as well, one block per level
 * (level c = the L1 of CPU c, level n_cpus = the L2): the counter rows
 * STAT_* below, then the evictor x victim eviction matrix.  A block is
 * n_owners wide and grows when a segment brings a larger owner id.
 * Each level also keeps the set of lines it has ever missed on (the
 * cold-miss classifier, imported from the Python model when the handle
 * is built) plus a log of the lines added since the caller last
 * drained it.  The caller folds the blocks into its CacheStats and
 * zeroes them whenever it needs the Python view (`walker_stats`,
 * `walker_seen_drain`).
 *
 * DRAM counters per walk_segment call: counters[0..2] = line reads,
 * line writes, bank conflicts.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ENTRY_COMPUTE 0
#define ENTRY_DELAY 1
#define ENTRY_SWITCH 2

#define L2_MODE_LRU 0
#define L2_MODE_FIFO 1
#define L2_MODE_WAY 2

/* Counter rows of a per-owner statistics block; hits are
 * accesses - misses (only the first access of a run can miss). */
#define STAT_ACCESSES 0
#define STAT_MISSES 1
#define STAT_COLD 2
#define STAT_WRITEBACKS 3
#define STAT_EVICTED 4
#define STAT_ROWS 5

/* walk_segment refusals (nothing was walked). */
#define WALK_NEGATIVE_OWNER -1
#define WALK_NO_MEMORY -2

/* One bank-model update; mirrors MainMemory.access timing exactly. */
static inline int bank_touch(double *bank_free, int64_t bank, double now,
                             int64_t bank_busy) {
    double free_at = bank_free[bank];
    int conflict = now < free_at;
    bank_free[bank] = (free_at > now ? free_at : now) + (double)bank_busy;
    return conflict;
}

/* ====================================================================
 * Seen-line sets (cold-miss classification)
 * ====================================================================
 *
 * Open addressing over non-negative line addresses; -1 marks an empty
 * slot.  `fresh` logs every line inserted since the last drain, so the
 * caller only exports what is new. */

typedef struct {
    int64_t *slots;
    int64_t capacity;           /* a power of two, or 0 */
    int64_t count;
    int64_t *fresh;
    int64_t n_fresh, fresh_capacity;
} line_set;

static inline uint64_t line_hash(int64_t line, int64_t capacity) {
    return ((uint64_t)line * 0x9E3779B97F4A7C15ULL) >> 17
           & (uint64_t)(capacity - 1);
}

static inline int line_set_add(line_set *s, int64_t line) {
    uint64_t mask = (uint64_t)(s->capacity - 1);
    uint64_t slot = line_hash(line, s->capacity);
    for (;;) {
        int64_t entry = s->slots[slot];
        if (entry == line) return 0;
        if (entry == -1) {
            s->slots[slot] = line;
            s->count++;
            return 1;
        }
        slot = (slot + 1) & mask;
    }
}

/* Room for `extra` more lines at load factor <= 1/2; 1 on failure. */
static int line_set_grow(line_set *s, int64_t extra) {
    int64_t need = 2 * (s->count + extra);
    if (need <= s->capacity) return 0;
    int64_t capacity = 16;
    while (capacity < need) capacity <<= 1;
    int64_t *slots = (int64_t *)malloc(capacity * sizeof(int64_t));
    if (slots == NULL) return 1;
    memset(slots, 0xff, capacity * sizeof(int64_t)); /* all slots = -1 */
    int64_t *old = s->slots;
    int64_t old_capacity = s->capacity;
    s->slots = slots;
    s->capacity = capacity;
    s->count = 0;
    for (int64_t i = 0; i < old_capacity; i++) {
        if (old[i] >= 0) line_set_add(s, old[i]);
    }
    free(old);
    return 0;
}

/* Room for `extra` insertions during a walk (table and fresh log), so
 * the walk itself never allocates; 1 on failure. */
static int line_set_reserve(line_set *s, int64_t extra) {
    if (extra <= 0) return 0;
    if (line_set_grow(s, extra)) return 1;
    if (s->n_fresh + extra > s->fresh_capacity) {
        int64_t capacity = 2 * (s->n_fresh + extra);
        int64_t *fresh =
            (int64_t *)realloc(s->fresh, capacity * sizeof(int64_t));
        if (fresh == NULL) return 1;
        s->fresh = fresh;
        s->fresh_capacity = capacity;
    }
    return 0;
}

/* Mark `line` seen; 1 when it was not (the miss is cold).  Capacity
 * must have been reserved. */
static inline int line_set_insert(line_set *s, int64_t line) {
    if (!line_set_add(s, line)) return 0;
    s->fresh[s->n_fresh++] = line;
    return 1;
}

/* ====================================================================
 * Persistent state handle
 * ====================================================================
 *
 * A walker_state aggregates pointers into numpy-owned arrays (the
 * Python side keeps them alive for the handle's lifetime) plus the
 * scalar model parameters.  Nothing is copied: the arrays ARE the
 * authoritative cache/bank/bus state between calls, so no call pays a
 * per-batch marshalling cost.  The statistics blocks, seen sets and the
 * run buffer are C-owned and freed with the handle. */

typedef struct {
    int64_t n_cpus;
    int64_t l1_sets, l1_ways;
    int64_t *l1_lines, *l1_owners;
    uint8_t *l1_dirty;
    int32_t *l1_len;
    int64_t l2_sets, l2_ways, l2_mode;
    int64_t *l2_lines, *l2_owners;
    uint8_t *l2_dirty;
    int32_t *l2_len;
    int64_t *l2_stamp;      /* way mode: per-slot LRU stamps */
    int64_t *way_clock;     /* way mode: 1-slot global clock */
    /* DRAM */
    int64_t bank_mask, bank_busy, dram_access, bank_penalty;
    double *bank_free;
    /* shared bus (mirrors repro.mem.bus.SharedBus) */
    int64_t bus_transfer_cycles;
    double bus_lines_per_cycle, bus_decay, bus_max_surcharge;
    double *bus_demand, *bus_last;
    int64_t *bus_transfers_total;   /* 1-slot accumulators, C-resident so  */
    double *bus_surcharge_total;    /* float addition order matches the    */
                                    /* reference exactly                   */
    /* timing */
    double issue_cpi;
    int64_t l2_hit_cycles;
    /* a write-only run touching this many spots fills its line */
    int64_t full_line_count;
    /* byte address -> line address */
    int64_t line_shift;
    /* statistics: n_cpus + 1 blocks of (STAT_ROWS + n_owners) rows of
     * n_owners counters, and one seen-line set per level */
    int64_t n_owners;
    int64_t *stats;
    line_set *seen;
    /* the run buffer of the current walk_segment call (see run_buffer) */
    void *run_block;
    int64_t run_capacity;
    int64_t *entry_runs;    /* entry e owns runs [entry_runs[e], [e+1]) */
    int64_t entry_capacity;
} walker_state;

/* The coalesced runs of one walk_segment call, carved out of the
 * handle's run block: parallel arrays indexed by run. */
typedef struct {
    int64_t *lines, *counts, *owners;
    uint8_t *write_any, *write_all;
} run_buffer;

/* The OS interval table of one call: sorted, non-overlapping
 * [base, end) byte ranges and their owner ids. */
typedef struct {
    int64_t n;
    const int64_t *bases, *ends, *owners;
} interval_table;

/* The per-call translation inputs of the L2. */
typedef struct {
    int64_t use_table, n_table;
    const int64_t *table_base, *table_size;
    const uint8_t *table_pow2;
    const int64_t *way_table;
    int64_t way_rows;
} l2_maps;

/* Per-entry walk outcome (feeds the cycle formula and BatchResult). */
typedef struct {
    int64_t l1_misses;
    int64_t store_fills;
    int64_t dram_reads;
    int64_t dram_writes;
    int64_t read_conflicts;
    int64_t write_conflicts;
    int64_t transfers;
} entry_tally;

/* Widen every statistics block to at least `n` owners; 1 on failure. */
static int stats_reserve(walker_state *st, int64_t n) {
    int64_t old_n = st->n_owners;
    if (n <= old_n) return 0;
    int64_t new_n = old_n ? old_n : 16;
    while (new_n < n) new_n <<= 1;
    int64_t levels = st->n_cpus + 1;
    int64_t *stats = (int64_t *)calloc(
        (size_t)(levels * (STAT_ROWS + new_n) * new_n), sizeof(int64_t));
    if (stats == NULL) return 1;
    for (int64_t level = 0; level < levels; level++) {
        const int64_t *src = st->stats + level * (STAT_ROWS + old_n) * old_n;
        int64_t *dst = stats + level * (STAT_ROWS + new_n) * new_n;
        for (int64_t row = 0; row < STAT_ROWS + old_n; row++) {
            memcpy(dst + row * new_n, src + row * old_n,
                   old_n * sizeof(int64_t));
        }
    }
    free(st->stats);
    st->stats = stats;
    st->n_owners = new_n;
    return 0;
}

/* The L2 set of `line` issued by `owner`: the set-translation table of
 * a set-partitioned L2 (owners beyond it use the default row), else
 * conventional indexing. */
static inline int64_t l2_set_index(const walker_state *st,
                                   const l2_maps *maps,
                                   int64_t line, int64_t owner) {
    if (!maps->use_table) return line & (st->l2_sets - 1);
    int64_t r = owner < maps->n_table ? owner : maps->n_table;
    int64_t size = maps->table_size[r];
    return maps->table_base[r] + (maps->table_pow2[r]
                                      ? (line & (size - 1))
                                      : (line % size));
}

/* THE replay body: walk the runs [start, end) of one entry against the
 * state.  The L1 is selected by cpu id; l2_mode picks the
 * set-associative LRU/FIFO walk or the way-managed column cache (hit
 * on any way, allocate only into the owner's columns, LRU by global
 * stamp).  The segment walker calls this once per entry with memory
 * traffic -- there is exactly one copy of the replay semantics in C. */
static void walk_entry_runs(
    walker_state *st, int64_t cpu, int64_t start, int64_t end,
    const int64_t *lines, const int64_t *counts,
    const uint8_t *write_any, const uint8_t *write_all,
    const int64_t *run_owners, const l2_maps *maps,
    double now, entry_tally *tally)
{
    const int64_t l1_ways = st->l1_ways;
    const int64_t l1_mask = st->l1_sets - 1;
    const int64_t l2_ways = st->l2_ways;
    const int64_t l2_mode = st->l2_mode;
    const int64_t n_own = st->n_owners;
    const int64_t block = (STAT_ROWS + n_own) * n_own;
    int64_t *l1_lines = st->l1_lines + cpu * st->l1_sets * l1_ways;
    int64_t *l1_owners = st->l1_owners + cpu * st->l1_sets * l1_ways;
    uint8_t *l1_dirty = st->l1_dirty + cpu * st->l1_sets * l1_ways;
    int32_t *l1_len = st->l1_len + cpu * st->l1_sets;
    int64_t *s1 = st->stats + cpu * block;
    int64_t *s2 = st->stats + st->n_cpus * block;
    line_set *seen1 = st->seen + cpu;
    line_set *seen2 = st->seen + st->n_cpus;

#define STAT(s, row, owner) (s)[(row) * n_own + (owner)]
#define EVICTION(s, evictor, victim) \
    (s)[(STAT_ROWS + (evictor)) * n_own + (victim)]

    for (int64_t i = start; i < end; i++) {
        int64_t line = lines[i];
        int64_t owner = run_owners[i];
        int64_t si = line & l1_mask;
        int64_t *row = l1_lines + si * l1_ways;
        int32_t len = l1_len[si];
        int64_t k;
        int write = write_any[i];

        STAT(s1, STAT_ACCESSES, owner) += counts[i];

        /* ---- L1 probe (always LRU) ----------------------------------- */
        for (k = 0; k < len; k++) {
            if (row[k] == line) break;
        }
        if (k < len) {
            if (k > 0) {
                int64_t *orow = l1_owners + si * l1_ways;
                uint8_t *drow = l1_dirty + si * l1_ways;
                int64_t own = orow[k];
                uint8_t dir = drow[k];
                memmove(row + 1, row, k * sizeof(int64_t));
                memmove(orow + 1, orow, k * sizeof(int64_t));
                memmove(drow + 1, drow, k * sizeof(uint8_t));
                row[0] = line;
                orow[0] = own;
                drow[0] = dir;
            }
            if (write) l1_dirty[si * l1_ways] = 1;
            continue;
        }

        /* ---- L1 miss + fill ------------------------------------------ */
        tally->l1_misses++;
        tally->transfers++;
        STAT(s1, STAT_MISSES, owner)++;
        if (line_set_insert(seen1, line)) STAT(s1, STAT_COLD, owner)++;
        int64_t *orow = l1_owners + si * l1_ways;
        uint8_t *drow = l1_dirty + si * l1_ways;
        int64_t wb_line = -1, wb_owner = 0;
        if (len >= l1_ways) {
            int64_t victim_owner = orow[len - 1];
            STAT(s1, STAT_EVICTED, victim_owner)++;
            EVICTION(s1, owner, victim_owner)++;
            if (drow[len - 1]) {
                STAT(s1, STAT_WRITEBACKS, victim_owner)++;
                wb_line = row[len - 1];
                wb_owner = victim_owner;
                tally->transfers++;
            }
            len--;
        }
        memmove(row + 1, row, len * sizeof(int64_t));
        memmove(orow + 1, orow, len * sizeof(int64_t));
        memmove(drow + 1, drow, len * sizeof(uint8_t));
        row[0] = line;
        orow[0] = owner;
        drow[0] = (uint8_t)write;
        l1_len[si] = len + 1;

        /* ---- dirty L1 victim written back through the L2 ------------- */
        if (wb_line >= 0) {
            int64_t wb_si = l2_mode == L2_MODE_WAY
                                ? wb_line & (st->l2_sets - 1)
                                : l2_set_index(st, maps, wb_line, wb_owner);
            int64_t *wrow = st->l2_lines + wb_si * l2_ways;
            int64_t j, wlen;
            wlen = l2_mode == L2_MODE_WAY ? l2_ways : st->l2_len[wb_si];
            for (j = 0; j < wlen; j++) {
                if (wrow[j] == wb_line) break;
            }
            if (j < wlen) {
                /* probe_writeback: dirty in place, no recency change */
                st->l2_dirty[wb_si * l2_ways + j] = 1;
            } else {
                tally->write_conflicts += bank_touch(
                    st->bank_free, wb_line & st->bank_mask, now,
                    st->bank_busy);
                tally->dram_writes++;
            }
        }

        /* ---- L2 probe (demand access or store fill) ------------------ */
        /* A full-line streaming store allocates without a DRAM fetch
         * (write-validate): an access and a hit, never a demand miss. */
        int sfill = write_all[i] && counts[i] >= st->full_line_count;
        if (sfill) tally->store_fills++;
        STAT(s2, STAT_ACCESSES, owner)++;
        int64_t l2i = l2_mode == L2_MODE_WAY
                          ? line & (st->l2_sets - 1)
                          : l2_set_index(st, maps, line, owner);
        int64_t *row2 = st->l2_lines + l2i * l2_ways;
        int64_t *orow2 = st->l2_owners + l2i * l2_ways;
        uint8_t *drow2 = st->l2_dirty + l2i * l2_ways;
        int64_t victim_slot = -1;

        if (l2_mode == L2_MODE_WAY) {
            /* WayManagedCache.access: clock tick, hit on any way,
             * allocate into the owner's columns only. */
            int64_t *srow2 = st->l2_stamp + l2i * l2_ways;
            int64_t clock = ++st->way_clock[0];
            for (k = 0; k < l2_ways; k++) {
                if (row2[k] == line) break;
            }
            if (k < l2_ways) {
                srow2[k] = clock;
                if (write) drow2[k] = 1;
                continue;
            }
            const int64_t *ways_row =
                maps->way_table
                + (owner < maps->way_rows ? owner : maps->way_rows) * l2_ways;
            int64_t victim_way = -1;
            int64_t lru_way = -1, lru_stamp = 0;
            for (k = 0; k < l2_ways; k++) {
                int64_t w = ways_row[k];
                if (w < 0) break;
                if (row2[w] == -1) {
                    victim_way = w;
                    break;
                }
                if (lru_way < 0 || srow2[w] < lru_stamp) {
                    lru_way = w;
                    lru_stamp = srow2[w];
                }
            }
            if (victim_way < 0) victim_way = lru_way;
            if (row2[victim_way] != -1) victim_slot = victim_way;
            srow2[victim_way] = clock;
            k = victim_way;
        } else {
            /* set-associative L2 (LRU or FIFO) */
            int32_t len2 = st->l2_len[l2i];
            for (k = 0; k < len2; k++) {
                if (row2[k] == line) break;
            }
            if (k < len2) {
                if (l2_mode == L2_MODE_LRU && k > 0) {
                    int64_t own = orow2[k];
                    uint8_t dir = drow2[k];
                    memmove(row2 + 1, row2, k * sizeof(int64_t));
                    memmove(orow2 + 1, orow2, k * sizeof(int64_t));
                    memmove(drow2 + 1, drow2, k * sizeof(uint8_t));
                    row2[0] = line;
                    orow2[0] = own;
                    drow2[0] = dir;
                    k = 0;
                }
                if (write) drow2[k] = 1;
                continue;
            }
            if (len2 >= l2_ways) victim_slot = len2 - 1;
        }

        /* ---- L2 miss: account, evict, fill --------------------------- */
        int cold = line_set_insert(seen2, line);
        if (!sfill) {
            STAT(s2, STAT_MISSES, owner)++;
            if (cold) STAT(s2, STAT_COLD, owner)++;
        }
        if (victim_slot >= 0) {
            int64_t victim_owner = orow2[victim_slot];
            STAT(s2, STAT_EVICTED, victim_owner)++;
            EVICTION(s2, owner, victim_owner)++;
            if (drow2[victim_slot]) {
                STAT(s2, STAT_WRITEBACKS, victim_owner)++;
                tally->write_conflicts += bank_touch(
                    st->bank_free, row2[victim_slot] & st->bank_mask, now,
                    st->bank_busy);
                tally->dram_writes++;
            }
        }
        if (l2_mode != L2_MODE_WAY) {
            /* shift the set down one slot (the tail victim drops off) */
            int32_t len2 = st->l2_len[l2i];
            if (victim_slot >= 0) len2--;
            memmove(row2 + 1, row2, len2 * sizeof(int64_t));
            memmove(orow2 + 1, orow2, len2 * sizeof(int64_t));
            memmove(drow2 + 1, drow2, len2 * sizeof(uint8_t));
            st->l2_len[l2i] = len2 + 1;
            k = 0;
        }
        row2[k] = line;
        orow2[k] = owner;
        drow2[k] = (uint8_t)write;

        if (!sfill) {
            tally->dram_reads++;
            tally->read_conflicts += bank_touch(
                st->bank_free, line & st->bank_mask, now, st->bank_busy);
        }
    }
#undef STAT
#undef EVICTION
}

void walker_state_free(void *state) {
    walker_state *st = (walker_state *)state;
    if (st == NULL) return;
    if (st->seen != NULL) {
        for (int64_t level = 0; level <= st->n_cpus; level++) {
            free(st->seen[level].slots);
            free(st->seen[level].fresh);
        }
        free(st->seen);
    }
    free(st->stats);
    free(st->run_block);
    free(st->entry_runs);
    free(st);
}

void *walker_state_new(
    int64_t n_cpus,
    int64_t l1_sets, int64_t l1_ways,
    int64_t *l1_lines, int64_t *l1_owners, uint8_t *l1_dirty,
    int32_t *l1_len,
    int64_t l2_sets, int64_t l2_ways, int64_t l2_mode,
    int64_t *l2_lines, int64_t *l2_owners, uint8_t *l2_dirty,
    int32_t *l2_len,
    int64_t *l2_stamp, int64_t *way_clock,
    int64_t bank_mask, int64_t bank_busy, int64_t dram_access,
    int64_t bank_penalty, double *bank_free,
    int64_t bus_transfer_cycles, double bus_lines_per_cycle,
    double bus_decay, double bus_max_surcharge,
    double *bus_demand, double *bus_last,
    int64_t *bus_transfers_total, double *bus_surcharge_total,
    double issue_cpi, int64_t l2_hit_cycles, int64_t full_line_count,
    int64_t line_shift)
{
    walker_state *st = (walker_state *)calloc(1, sizeof(walker_state));
    if (st == NULL) return NULL;
    st->n_cpus = n_cpus;
    st->l1_sets = l1_sets;
    st->l1_ways = l1_ways;
    st->l1_lines = l1_lines;
    st->l1_owners = l1_owners;
    st->l1_dirty = l1_dirty;
    st->l1_len = l1_len;
    st->l2_sets = l2_sets;
    st->l2_ways = l2_ways;
    st->l2_mode = l2_mode;
    st->l2_lines = l2_lines;
    st->l2_owners = l2_owners;
    st->l2_dirty = l2_dirty;
    st->l2_len = l2_len;
    st->l2_stamp = l2_stamp;
    st->way_clock = way_clock;
    st->bank_mask = bank_mask;
    st->bank_busy = bank_busy;
    st->dram_access = dram_access;
    st->bank_penalty = bank_penalty;
    st->bank_free = bank_free;
    st->bus_transfer_cycles = bus_transfer_cycles;
    st->bus_lines_per_cycle = bus_lines_per_cycle;
    st->bus_decay = bus_decay;
    st->bus_max_surcharge = bus_max_surcharge;
    st->bus_demand = bus_demand;
    st->bus_last = bus_last;
    st->bus_transfers_total = bus_transfers_total;
    st->bus_surcharge_total = bus_surcharge_total;
    st->issue_cpi = issue_cpi;
    st->l2_hit_cycles = l2_hit_cycles;
    st->full_line_count = full_line_count;
    st->line_shift = line_shift;

    /* Resident lines may be evicted before their owner walks again:
     * size the blocks for every imported owner (and at least one). */
    int64_t max_owner = -1;
    for (int64_t i = 0; i < n_cpus * l1_sets * l1_ways; i++) {
        if (l1_lines[i] != -1 && l1_owners[i] > max_owner)
            max_owner = l1_owners[i];
    }
    for (int64_t i = 0; i < l2_sets * l2_ways; i++) {
        if (l2_lines[i] != -1 && l2_owners[i] > max_owner)
            max_owner = l2_owners[i];
    }
    st->seen = (line_set *)calloc((size_t)(n_cpus + 1), sizeof(line_set));
    if (st->seen == NULL
        || stats_reserve(st, max_owner >= 0 ? max_owner + 1 : 1)) {
        walker_state_free(st);
        return NULL;
    }
    return st;
}

/* Add the caller's seen lines of one level (not logged as fresh);
 * 0, or 1 when allocation fails. */
int walker_seen_import(void *state, int64_t level, const int64_t *lines,
                       int64_t n) {
    line_set *s = ((walker_state *)state)->seen + level;
    if (line_set_grow(s, n)) return 1;
    for (int64_t i = 0; i < n; i++) line_set_add(s, lines[i]);
    return 0;
}

/* The lines one level has seen since the last drain; *n_out gets their
 * count and the log restarts.  The returned buffer stays valid until
 * the next walk_segment call. */
const int64_t *walker_seen_drain(void *state, int64_t level,
                                 int64_t *n_out) {
    line_set *s = ((walker_state *)state)->seen + level;
    *n_out = s->n_fresh;
    s->n_fresh = 0;
    return s->fresh;
}

/* The statistics blocks (n_cpus + 1 of them, see the file header) and
 * their owner width in *n_owners_out.  The caller may read and zero
 * them in place; the pointer stays valid until the next walk_segment
 * call. */
int64_t *walker_stats(void *state, int64_t *n_owners_out) {
    walker_state *st = (walker_state *)state;
    *n_owners_out = st->n_owners;
    return st->stats;
}

/* SharedBus.price_transfers, term for term (same exp(), same addition
 * order over CPUs, same truncation), accumulating the totals into the
 * C-resident slots so the running float sums match the reference. */
static int64_t bus_price(walker_state *st, int64_t cpu, int64_t n,
                         double now) {
    if (n <= 0) return 0;
    double other_rate = 0.0;
    for (int64_t c = 0; c < st->n_cpus; c++) {
        double elapsed, decayed;
        if (c == cpu) continue;
        elapsed = now - st->bus_last[c];
        if (elapsed < 0.0) elapsed = 0.0;
        decayed = st->bus_demand[c] * exp(-elapsed / st->bus_decay);
        other_rate += decayed / st->bus_decay;
    }
    double utilisation = other_rate / st->bus_lines_per_cycle;
    if (utilisation > 1.0) utilisation = 1.0;
    double surcharge = utilisation < st->bus_max_surcharge
                           ? utilisation : st->bus_max_surcharge;
    int64_t base = n * st->bus_transfer_cycles;
    double extra = (double)base * surcharge;
    {
        double elapsed = now - st->bus_last[cpu];
        if (elapsed < 0.0) elapsed = 0.0;
        st->bus_demand[cpu] =
            st->bus_demand[cpu] * exp(-elapsed / st->bus_decay) + (double)n;
        st->bus_last[cpu] = now;
    }
    st->bus_transfers_total[0] += n;
    st->bus_surcharge_total[0] += extra;
    return (int64_t)((double)base + extra);
}

/* ====================================================================
 * Run coalescing and owner resolution (the walk_segment pre-pass)
 * ==================================================================== */

/* Room for `n_runs` runs and the run bounds of `n_entries` entries;
 * 1 on failure (the old buffers stay as they were). */
static int run_buffer_reserve(walker_state *st, int64_t n_runs,
                              int64_t n_entries) {
    if (n_runs > st->run_capacity) {
        int64_t capacity = st->run_capacity ? 2 * st->run_capacity : 1024;
        while (capacity < n_runs) capacity <<= 1;
        /* three int64 arrays, then two byte arrays (see run_buffer_of) */
        void *block =
            malloc((size_t)capacity * (3 * sizeof(int64_t) + 2));
        if (block == NULL) return 1;
        free(st->run_block);
        st->run_block = block;
        st->run_capacity = capacity;
    }
    if (n_entries + 1 > st->entry_capacity) {
        int64_t capacity = 2 * (n_entries + 1);
        int64_t *bounds = (int64_t *)realloc(
            st->entry_runs, (size_t)capacity * sizeof(int64_t));
        if (bounds == NULL) return 1;
        st->entry_runs = bounds;
        st->entry_capacity = capacity;
    }
    return 0;
}

static run_buffer run_buffer_of(const walker_state *st) {
    int64_t capacity = st->run_capacity;
    int64_t *words = (int64_t *)st->run_block;
    uint8_t *bytes = (uint8_t *)(words + 3 * capacity);
    run_buffer runs = {words, words + capacity, words + 2 * capacity,
                       bytes, bytes + capacity};
    return runs;
}

/* OwnerResolver.resolve: the owner of the interval holding `addr` (the
 * last base <= addr, when addr is below its end), else the task's. */
static inline int64_t resolve_owner(const interval_table *intervals,
                                    int64_t addr, int64_t task_owner) {
    int64_t lo = 0, hi = intervals->n;  /* first base > addr */
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (intervals->bases[mid] <= addr) lo = mid + 1;
        else hi = mid;
    }
    if (lo > 0 && addr < intervals->ends[lo - 1])
        return intervals->owners[lo - 1];
    return task_owner;
}

/* coalesce_runs of repro.mem.trace over one entry's n accesses (store
 * flags are 0/1 bytes), with each run's owner resolved from its line
 * base address; the runs go to `runs` from index r on.  Returns one
 * past the entry's last run. */
static int64_t coalesce_entry(const walker_state *st, const run_buffer *runs,
                              int64_t r, const int64_t *addrs,
                              const uint8_t *writes, int64_t n,
                              int64_t task_owner,
                              const interval_table *intervals) {
    const int64_t shift = st->line_shift;
    int64_t i = 0;
    while (i < n) {
        int64_t line = addrs[i] >> shift;
        uint8_t any = writes[i], all = writes[i];
        int64_t j = i + 1;
        while (j < n && addrs[j] >> shift == line) {
            any |= writes[j];
            all &= writes[j];
            j++;
        }
        runs->lines[r] = line;
        runs->counts[r] = j - i;
        runs->write_any[r] = any;
        runs->write_all[r] = all;
        runs->owners[r] = resolve_owner(
            intervals, (int64_t)((uint64_t)line << shift), task_owner);
        r++;
        i = j;
    }
    return r;
}

/* Execute up to n_entries schedule entries; returns how many ran, or a
 * negative WALK_* code when it refused to start (state untouched): a
 * run resolved a negative owner id, or the run buffer, statistics
 * blocks or seen sets could not grow to cover the segment.
 *
 * Entry e brings entry_accesses[e] accesses (0 for delays and switches
 * without traffic) at entry_addrs[e] / entry_writes[e], issued by task
 * entry_owner[e]; the interval table resolves buffer owners (see the
 * file header).
 *
 * Entry kinds: ENTRY_COMPUTE walks its runs and advances the clock by
 * the computed cycle cost; ENTRY_DELAY advances by entry_advance[e]
 * without touching memory; ENTRY_SWITCH walks its runs (context-switch
 * TCB traffic) but advances by the fixed entry_advance[e] and does not
 * count against the quantum -- exactly the CPU runner's dispatch path.
 *
 * Early exit, checked before starting entry e >= 1 (entry 0 always
 * runs -- the caller was just resumed and acts before anyone else):
 * - horizon: once any simulated time has elapsed, no entry may start
 *   at or after the earliest foreign event (`now >= horizon`); the
 *   pending entries are handed back so the event kernel interleaves
 *   them bit-identically with the other actors.
 * - quantum: with use_quantum set (the ready queue was non-empty when
 *   the segment was collected, and it cannot change before `horizon`),
 *   stop once the accumulated compute/delay cycles exhaust it --
 *   the runner's round-robin preemption point.
 */
int64_t walk_segment(
    void *state_ptr,
    int64_t n_entries,
    const int64_t *entry_kind, const int64_t *entry_cpu,
    const int64_t *entry_owner, const int64_t *entry_accesses,
    const int64_t *const *entry_addrs, const uint8_t *const *entry_writes,
    const int64_t *entry_instr, const int64_t *entry_advance,
    int64_t n_intervals, const int64_t *interval_base,
    const int64_t *interval_end, const int64_t *interval_owner,
    int64_t use_table, int64_t n_table,
    const int64_t *table_base, const int64_t *table_size,
    const uint8_t *table_pow2,
    const int64_t *way_table, int64_t way_rows,
    double now, double horizon,
    int64_t quantum, int64_t use_quantum,
    int64_t *out_cycles, int64_t *out_l1_misses, int64_t *out_l2_misses,
    int64_t *out_dram_lines, int64_t *out_bus_cycles,
    int64_t *out_store_fills,
    int64_t *counters)
{
    walker_state *st = (walker_state *)state_ptr;
    const l2_maps maps = {use_table, n_table, table_base, table_size,
                          table_pow2, way_table, way_rows};
    const interval_table intervals = {n_intervals, interval_base,
                                      interval_end, interval_owner};
    int64_t dram_reads = 0, dram_writes = 0, conflicts = 0;
    int64_t elapsed = 0;
    int64_t e;

    /* Coalesce every entry and resolve its run owners, then make room
     * for everything the segment can add -- all before any state
     * moves: a wider block for new owners, seen-set slots per level. */
    int64_t n_accesses = 0;
    for (e = 0; e < n_entries; e++) n_accesses += entry_accesses[e];
    if (run_buffer_reserve(st, n_accesses, n_entries)) return WALK_NO_MEMORY;
    const run_buffer runs = run_buffer_of(st);
    int64_t *bounds = st->entry_runs;
    int64_t n_runs = 0;
    bounds[0] = 0;
    for (e = 0; e < n_entries; e++) {
        n_runs = coalesce_entry(st, &runs, n_runs, entry_addrs[e],
                                entry_writes[e], entry_accesses[e],
                                entry_owner[e], &intervals);
        bounds[e + 1] = n_runs;
    }
    int64_t max_owner = -1;
    for (int64_t i = 0; i < n_runs; i++) {
        if (runs.owners[i] < 0) return WALK_NEGATIVE_OWNER;
        if (runs.owners[i] > max_owner) max_owner = runs.owners[i];
    }
    if (stats_reserve(st, max_owner + 1)) return WALK_NO_MEMORY;
    if (line_set_reserve(st->seen + st->n_cpus, n_runs)) return WALK_NO_MEMORY;
    for (int64_t c = 0; c < st->n_cpus; c++) {
        int64_t cpu_runs = 0;
        for (e = 0; e < n_entries; e++) {
            if (entry_cpu[e] == c) cpu_runs += bounds[e + 1] - bounds[e];
        }
        if (line_set_reserve(st->seen + c, cpu_runs)) return WALK_NO_MEMORY;
    }

    for (e = 0; e < n_entries; e++) {
        if (e > 0) {
            if (elapsed > 0 && now >= horizon) break;
            if (use_quantum && quantum <= 0) break;
        }
        int64_t kind = entry_kind[e];
        int64_t cycles, advance;
        if (kind == ENTRY_DELAY) {
            cycles = entry_advance[e];
            advance = cycles;
            out_cycles[e] = cycles;
            out_l1_misses[e] = 0;
            out_l2_misses[e] = 0;
            out_dram_lines[e] = 0;
            out_bus_cycles[e] = 0;
            out_store_fills[e] = 0;
        } else {
            entry_tally tally = {0, 0, 0, 0, 0, 0, 0};
            walk_entry_runs(
                st, entry_cpu[e], bounds[e], bounds[e + 1], runs.lines,
                runs.counts, runs.write_any, runs.write_all, runs.owners,
                &maps, now, &tally);
            int64_t stall =
                (tally.l1_misses - tally.store_fills) * st->l2_hit_cycles
                + tally.dram_reads * st->dram_access
                + tally.read_conflicts * st->bank_penalty;
            int64_t bus = bus_price(st, entry_cpu[e], tally.transfers, now);
            cycles = (int64_t)llrint(
                         (double)entry_instr[e] * st->issue_cpi)
                     + stall + bus;
            advance = kind == ENTRY_SWITCH ? entry_advance[e] : cycles;
            out_cycles[e] = cycles;
            out_l1_misses[e] = tally.l1_misses;
            out_l2_misses[e] = tally.dram_reads;
            out_dram_lines[e] = tally.dram_reads + tally.dram_writes;
            out_bus_cycles[e] = bus;
            out_store_fills[e] = tally.store_fills;
            dram_reads += tally.dram_reads;
            dram_writes += tally.dram_writes;
            conflicts += tally.read_conflicts + tally.write_conflicts;
        }
        now += (double)advance;
        elapsed += advance;
        if (kind != ENTRY_SWITCH) quantum -= cycles;
    }

    counters[0] = dram_reads;
    counters[1] = dram_writes;
    counters[2] = conflicts;
    return e;
}
