/* Algorithm 1 (modified Dijkstra with flag reuse) as one native sweep.
 *
 * repro_sweep() runs the sweep from one source over the shared n x n
 * distance matrix, exactly as repro.core.modified_dijkstra does in
 * Python: same queue disciplines, same float operations in the same
 * order, same operation counts.  It holds no interpreter state, so
 * ctypes drops the interpreter lock for the call and several threads
 * can sweep at once.  repro_sweep_claims() is a worker's whole claim
 * loop: sources come from an atomic cursor, so a sweep phase costs one
 * foreign call per worker, not one per source.  repro_sweep_rows() runs
 * sweeps into a block of rows, one row per source: the exact rows of
 * store builds, repairs and update re-solves.  It raises no flags, but
 * it may be handed a block of finished "hub" rows: a popped hub merges
 * its row instead of relaxing its edges, Algorithm 1's reuse with a
 * slot map in place of the flags.  Without hubs every row is a flagless
 * sweep.
 *
 * Concurrency: a sweep writes only its own row.  It reads another row
 * t only after loading flag[t] with acquire semantics, and it raises
 * its own flag with release semantics after the row's last write, so a
 * reader that sees the flag also sees the final row.
 *
 * Row merges are most of a flagged sweep's work, so merge() is written
 * branch-free for the vectorizer.  On x86-64 glibc it is also built as
 * an AVX2 clone beside the default one, and the loader picks the clone
 * this CPU runs (no -march flag: the cached library may move hosts).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define REPRO_MERGE_CLONES 1
#endif
#endif

/* per-source count slots: the OpCounts fields first, in their order */
enum { C_POPS, C_EDGE_RELAXATIONS, C_EDGE_IMPROVEMENTS, C_ROW_MERGES,
       C_MERGE_COMPARISONS, C_FLAG_HITS, C_MERGE_IMPROVED, C_MERGE_NOOP,
       C_RELAX_CALLS, C_RELAX_EMPTY, C_PEAK_QUEUE, C_NCOUNTS };

typedef struct {
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    double *dist;               /* n x n, row-major; a block of rows
                                   for repro_sweep_rows() */
    uint8_t *flag;              /* NULL: flagless rows */
    const double *completed_at; /* NULL: every raised flag may be used */
    int64_t *counts;            /* one C_NCOUNTS row per row of dist */
    int64_t n;
    int32_t heap;
    int32_t use_flags;
    const double *hub;          /* NULL, or K x n finished rows; == dist:
                                   the block being filled */
    int64_t *slot;              /* with hub: t's row in it, or -1 */
} repro_sweep_ctx;

typedef struct {
    int64_t *ring;       /* FIFO: n slots, enough with in-queue dedup */
    uint8_t *in_queue;
    double *heap_d;      /* heap entries (d, v), ordered like heapq */
    int64_t *heap_v;
    int64_t heap_cap;
} repro_sweep_scratch;

void repro_sweep_scratch_free(repro_sweep_scratch *s)
{
    if (!s)
        return;
    free(s->ring);
    free(s->in_queue);
    free(s->heap_d);
    free(s->heap_v);
    free(s);
}

repro_sweep_scratch *repro_sweep_scratch_new(int64_t n)
{
    repro_sweep_scratch *s = calloc(1, sizeof *s);
    size_t slots = n > 0 ? (size_t)n : 1;
    if (!s)
        return NULL;
    s->ring = malloc(slots * sizeof *s->ring);
    s->in_queue = calloc(slots, 1);
    s->heap_cap = (int64_t)slots;
    s->heap_d = malloc(slots * sizeof *s->heap_d);
    s->heap_v = malloc(slots * sizeof *s->heap_v);
    if (!s->ring || !s->in_queue || !s->heap_d || !s->heap_v) {
        repro_sweep_scratch_free(s);
        return NULL;
    }
    return s;
}

/* The finished row of t this sweep may merge instead of relaxing t's
 * edges: t's hub row, or its flagged row of the matrix; NULL if none. */
static const double *usable(const repro_sweep_ctx *c, int64_t t,
                            int64_t source, double dispatch_time)
{
    if (t == source)
        return NULL;
    if (c->hub && c->slot[t] >= 0)
        return c->hub + c->slot[t] * c->n;
    if (c->use_flags && __atomic_load_n(&c->flag[t], __ATOMIC_ACQUIRE)
        && (!c->completed_at || c->completed_at[t] <= dispatch_time))
        return c->dist + t * c->n;
    return NULL;
}

/* ds[v] = min(ds[v], ds_t + dt[v]), counted like kernels.merge_row.
 * The rows never alias (t != source, and a hub row is another block's
 * or an earlier row of this one), and the store is unconditional: ds is
 * this sweep's own row, unpublished until its flag is raised. */
#ifdef REPRO_MERGE_CLONES
__attribute__((target_clones("avx2", "default")))
#endif
static void merge(double *restrict ds, const double *restrict dt,
                  double ds_t, int64_t n, int64_t *k)
{
    int64_t improved = 0;
    for (int64_t v = 0; v < n; v++) {
        const double cand = ds_t + dt[v];
        const int lt = cand < ds[v];
        improved += lt;
        ds[v] = lt ? cand : ds[v];
    }
    k[C_ROW_MERGES]++;
    k[C_MERGE_COMPARISONS] += n;
    k[C_FLAG_HITS]++;
    k[C_MERGE_IMPROVED] += improved;
    if (!improved)
        k[C_MERGE_NOOP]++;
}

/* Which merge() the loader dispatched to: "avx2" or "scalar". */
const char *repro_sweep_simd(void)
{
#ifdef REPRO_MERGE_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "scalar";
}

static int heap_less(double da, int64_t va, double db, int64_t vb)
{
    return da < db || (da == db && va < vb);
}

static int heap_push(repro_sweep_scratch *s, int64_t *size, double d,
                     int64_t v)
{
    int64_t i = (*size)++;
    if (i >= s->heap_cap) {
        int64_t cap = 2 * s->heap_cap;
        double *nd = realloc(s->heap_d, (size_t)cap * sizeof *nd);
        if (!nd)
            return -1;
        s->heap_d = nd;
        int64_t *nv = realloc(s->heap_v, (size_t)cap * sizeof *nv);
        if (!nv)
            return -1;
        s->heap_v = nv;
        s->heap_cap = cap;
    }
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!heap_less(d, v, s->heap_d[parent], s->heap_v[parent]))
            break;
        s->heap_d[i] = s->heap_d[parent];
        s->heap_v[i] = s->heap_v[parent];
        i = parent;
    }
    s->heap_d[i] = d;
    s->heap_v[i] = v;
    return 0;
}

static void heap_pop(repro_sweep_scratch *s, int64_t *size, double *d,
                     int64_t *v)
{
    *d = s->heap_d[0];
    *v = s->heap_v[0];
    int64_t last = --(*size);
    double ld = s->heap_d[last];
    int64_t lv = s->heap_v[last];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= last)
            break;
        if (child + 1 < last
            && heap_less(s->heap_d[child + 1], s->heap_v[child + 1],
                         s->heap_d[child], s->heap_v[child]))
            child++;
        if (!heap_less(s->heap_d[child], s->heap_v[child], ld, lv))
            break;
        s->heap_d[i] = s->heap_d[child];
        s->heap_v[i] = s->heap_v[child];
        i = child;
    }
    s->heap_d[i] = ld;
    s->heap_v[i] = lv;
}

/* One sweep from `source` into row `ds` with count slots `k`; 0 on
 * success, -1 if the heap cannot grow. */
static int sweep(const repro_sweep_ctx *c, repro_sweep_scratch *s,
                 int64_t source, double *ds, int64_t *k,
                 double dispatch_time)
{
    const int64_t n = c->n;
    int64_t size = 1, head = 0, peak = 1;

    for (int i = 0; i < C_NCOUNTS; i++)
        k[i] = 0;
    ds[source] = 0.0;
    if (c->heap) {
        s->heap_d[0] = 0.0;
        s->heap_v[0] = source;
    } else {
        s->ring[0] = source;
        s->in_queue[source] = 1;
    }
    while (size > 0) {
        int64_t t;
        if (size > peak)
            peak = size;
        if (c->heap) {
            double d;
            heap_pop(s, &size, &d, &t);
            k[C_POPS]++;
            if (d > ds[t])
                continue; /* stale entry (lazy deletion) */
        } else {
            t = s->ring[head];
            head = head + 1 == n ? 0 : head + 1;
            size--;
            s->in_queue[t] = 0;
            k[C_POPS]++;
        }
        const double ds_t = ds[t];
        const double *dt = usable(c, t, source, dispatch_time);
        if (dt) {
            merge(ds, dt, ds_t, n, k);
            continue; /* prune: the final row covers every continuation */
        }
        const int64_t lo = c->indptr[t], hi = c->indptr[t + 1];
        k[C_RELAX_CALLS]++;
        k[C_EDGE_RELAXATIONS] += hi - lo;
        if (lo == hi)
            k[C_RELAX_EMPTY]++;
        for (int64_t e = lo; e < hi; e++) {
            const int64_t v = c->indices[e];
            const double cand = ds_t + c->weights[e];
            if (!(cand < ds[v]))
                continue;
            ds[v] = cand;
            k[C_EDGE_IMPROVEMENTS]++;
            if (c->heap) {
                if (heap_push(s, &size, cand, v))
                    return -1;
            } else if (!s->in_queue[v]) {
                s->in_queue[v] = 1;
                int64_t tail = head + size;
                s->ring[tail >= n ? tail - n : tail] = v;
                size++;
            }
        }
    }
    k[C_PEAK_QUEUE] = peak;
    if (c->flag)
        __atomic_store_n(&c->flag[source], 1, __ATOMIC_RELEASE);
    return 0;
}

/* One sweep from `source` into its own row of the n x n matrix. */
int repro_sweep(const repro_sweep_ctx *c, repro_sweep_scratch *s,
                int64_t source, double dispatch_time)
{
    return sweep(c, s, source, c->dist + source * c->n,
                 c->counts + source * C_NCOUNTS, dispatch_time);
}

/* Rows of a block: row p of c->dist and of c->counts, a block of
 * `count` rows, is the row from sources[p].  c->use_flags must be 0 and
 * c->flag may be NULL.  Without c->hub each row is a flagless sweep.
 * With it, a source's own hub row is copied (zero counts) and every
 * other sweep merges the hub rows it pops.  c->hub == c->dist makes the
 * block its own hub block, the paper's sweep over the hubs: each swept
 * row joins the slot map, so later rows merge it.  Returns 0, or -1 if
 * a heap cannot grow. */
int repro_sweep_rows(const repro_sweep_ctx *c, repro_sweep_scratch *s,
                     const int64_t *sources, int64_t count)
{
    const int64_t n = c->n;
    for (int64_t p = 0; p < count; p++) {
        double *ds = c->dist + p * n;
        int64_t *k = c->counts + p * C_NCOUNTS;
        if (c->hub && c->slot[sources[p]] >= 0) {
            memcpy(ds, c->hub + c->slot[sources[p]] * n, n * sizeof *ds);
            memset(k, 0, C_NCOUNTS * sizeof *k);
            continue;
        }
        for (int64_t v = 0; v < n; v++)
            ds[v] = INFINITY;
        if (sweep(c, s, sources[p], ds, k, 0.0))
            return -1;
        if (c->hub == c->dist)
            c->slot[sources[p]] = p;
    }
    return 0;
}

/* A worker's claim loop, the native schedule(dynamic, chunk): claim
 * `chunk` positions at a time from `*cursor` with one fetch-and-add and
 * sweep order[positions[p]] (order[p] when positions is NULL) for each,
 * until the cursor passes `count`.  Workers that share a cursor split
 * the positions between them; a private cursor sweeps them all in
 * turn.  Returns the number of claims, or -1 if a heap cannot grow.
 * `chunk` must be in [1, count] so the cursor cannot overflow. */
int64_t repro_sweep_claims(const repro_sweep_ctx *c, repro_sweep_scratch *s,
                           const int64_t *order, const int64_t *positions,
                           int64_t count, int64_t *cursor, int64_t chunk)
{
    int64_t claims = 0;
    for (;;) {
        const int64_t start = __atomic_fetch_add(cursor, chunk,
                                                 __ATOMIC_RELAXED);
        if (start >= count)
            return claims;
        const int64_t end = count - start < chunk ? count : start + chunk;
        claims++;
        for (int64_t p = start; p < end; p++) {
            const int64_t i = positions ? positions[p] : p;
            if (repro_sweep(c, s, order[i], 0.0))
                return -1;
        }
    }
}
