/* Native kernels for the two scalar hot loops of a solve.
 *
 * run_phase1     Alg. 1 on one partition's live local graph: OB paths, EB
 *                cycles, internal-vertex cycles with the mergeInto pivot,
 *                and the final attachment splice. Mirrors the Python oracle
 *                in repro/core/phase1.py step for step, so both produce the
 *                same flat walk sequence and the same per-root records.
 * bfs_order      The BFS vertex order over a CSR graph, restarting per
 *                component in a caller-supplied start permutation.
 * ldg_partition  The LDG streaming placement loop (repro/partitioning/ldg.py).
 *
 * Every array is a contiguous int64 buffer owned by the caller (NumPy); the
 * kernels allocate only their own scratch. Built and loaded by
 * repro/native/__init__.py through ctypes, which releases the GIL for the
 * duration of each call.
 */

#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* run_phase1 return codes; P1_ERR_* fill ``info`` with global vertex ids. */
#define P1_OK 0
#define P1_ERR_NOMEM 1
#define P1_ERR_LEMMA1_END 2  /* info: start OB, end vertex */
#define P1_ERR_LEMMA1_LOOP 3 /* info: start OB */
#define P1_ERR_LEMMA2_EB 4   /* info: start EB, end vertex */
#define P1_ERR_LEMMA2_IV 5   /* info: start vertex, end vertex */
#define P1_ERR_UNVISITED 6
#define P1_ERR_UNSPLICED 7   /* info: count k <= 8, then k sorted vertices */

#define KIND_PATH 0
#define KIND_CYCLE 1

typedef struct {
    /* walk tables (read only) */
    const i64 *slot_enc, *slot_next, *ptr0, *adj_end, *vert_ids;
    /* per-run state */
    i64 *skip;        /* slots skipped past ptr0[v] (next-unvisited cursor) */
    uint8_t *visited; /* per edge */
    i64 *wenc, *wnxt; /* every walk, back to back: packed edge, local dst */
    i64 wpos;
} walker;

static inline i64 gid(const walker *w, i64 local)
{
    return w->vert_ids ? w->vert_ids[local] : local;
}

/* Maximal walk along unvisited edges from ``start``; appends to wenc/wnxt
 * and returns the local end vertex. */
static i64 walk(walker *w, i64 start)
{
    const i64 *slot_enc = w->slot_enc, *slot_next = w->slot_next;
    uint8_t *visited = w->visited;
    i64 cur = start, pos = w->wpos;
    for (;;) {
        i64 base = w->ptr0[cur], end = w->adj_end[cur];
        i64 p = base + w->skip[cur];
        while (p < end && visited[slot_enc[p] >> 1])
            p++;
        w->skip[cur] = p - base;
        if (p == end)
            break;
        i64 e = slot_enc[p];
        visited[e >> 1] = 1;
        w->wenc[pos] = e;
        w->wnxt[pos] = slot_next[p];
        pos++;
        cur = slot_next[p];
    }
    w->wpos = pos;
    return cur;
}

static void reverse2(i64 *a, i64 *b, i64 lo, i64 hi)
{
    for (hi--; lo < hi; lo++, hi--) {
        i64 t = a[lo]; a[lo] = a[hi]; a[hi] = t;
        t = b[lo]; b[lo] = b[hi]; b[hi] = t;
    }
}

/* Rotate segment [s, s+n) left by r positions (both parallel arrays). */
static void rotate2(i64 *a, i64 *b, i64 s, i64 n, i64 r)
{
    if (r == 0 || r == n)
        return;
    reverse2(a, b, s, s + r);
    reverse2(a, b, s + r, s + n);
    reverse2(a, b, s, s + n);
}

/* owner[] and att_head[] hold index + 1 so calloc'd zero means "none". */
static void claim(i64 *owner, i64 root1, const i64 *nxt, i64 s, i64 n)
{
    for (i64 j = s; j < s + n; j++)
        if (owner[nxt[j]] == 0)
            owner[nxt[j]] = root1;
}

/* Insert v into the ascending, duplicate-free top-k list ``best``. */
static void keep_smallest(i64 *best, i64 *k, i64 cap, i64 v)
{
    i64 i = 0;
    while (i < *k && best[i] < v)
        i++;
    if (i < *k && best[i] == v)
        return;
    if (i >= cap)
        return;
    i64 last = *k < cap ? *k : cap - 1;
    for (i64 j = last; j > i; j--)
        best[j] = best[j - 1];
    best[i] = v;
    if (*k < cap)
        (*k)++;
}

/* counts: [n_roots, n_paths, n_eb_cycles, n_iv_merged, n_iv_anchored,
 *          n_trivial]. Output buffers: out_enc/out_dst hold m entries,
 *          the root_* arrays hold up to m entries. */
i64 run_phase1(
    i64 m, i64 size,
    const i64 *slot_enc, const i64 *slot_next, const i64 *ptr0,
    const i64 *adj_end, const i64 *eu_i,
    const i64 *ob, i64 n_ob, const i64 *eb, i64 n_eb,
    const i64 *vert_ids, const uint8_t *is_ob, i64 validate,
    i64 *out_enc, i64 *out_dst,
    i64 *root_kind, i64 *root_src, i64 *root_dst, i64 *root_len,
    i64 *counts, i64 *info)
{
    i64 rc = P1_OK;
    walker w = {slot_enc, slot_next, ptr0, adj_end, vert_ids,
                NULL, NULL, NULL, NULL, 0};
    i64 msz = m > 0 ? m : 1, vsz = size > 0 ? size : 1;
    w.skip = calloc((size_t)vsz, sizeof(i64));
    w.visited = calloc((size_t)msz, 1);
    w.wenc = malloc((size_t)msz * sizeof(i64));
    w.wnxt = malloc((size_t)msz * sizeof(i64));
    i64 *owner = calloc((size_t)vsz, sizeof(i64));
    i64 *att_head = calloc((size_t)vsz, sizeof(i64));
    i64 *att_tail = calloc((size_t)vsz, sizeof(i64));
    /* roots: segment start/len, local src/dst; cycles: segment, next link,
     * root. At most m non-empty walks in total. */
    i64 *r_seg = malloc((size_t)msz * sizeof(i64));
    i64 *r_len = malloc((size_t)msz * sizeof(i64));
    i64 *r_src = malloc((size_t)msz * sizeof(i64));
    i64 *r_natt = calloc((size_t)msz, sizeof(i64));
    i64 *c_seg = malloc((size_t)msz * sizeof(i64));
    i64 *c_len = malloc((size_t)msz * sizeof(i64));
    i64 *c_next = malloc((size_t)msz * sizeof(i64));
    i64 *c_root = malloc((size_t)msz * sizeof(i64));
    i64 *c_piv = malloc((size_t)msz * sizeof(i64));
    i64 *frames = NULL;
    if (!w.skip || !w.visited || !w.wenc || !w.wnxt || !owner || !att_head
        || !att_tail || !r_seg || !r_len || !r_src || !r_natt || !c_seg
        || !c_len || !c_next || !c_root || !c_piv) {
        rc = P1_ERR_NOMEM;
        goto done;
    }

    i64 n_roots = 0, n_cycles = 0;
    i64 n_paths = 0, n_eb_cycles = 0, n_merged = 0, n_anchored = 0;
    i64 n_trivial = 0;

    /* 1) OB -> OB maximal paths. */
    for (i64 i = 0; i < n_ob; i++) {
        i64 vi = ob[i], s = w.wpos;
        i64 end = walk(&w, vi), n = w.wpos - s;
        if (n == 0)
            continue;
        if (validate) {
            if (!is_ob[end]) {
                info[0] = gid(&w, vi); info[1] = gid(&w, end);
                rc = P1_ERR_LEMMA1_END;
                goto done;
            }
            if (end == vi) {
                info[0] = gid(&w, vi);
                rc = P1_ERR_LEMMA1_LOOP;
                goto done;
            }
        }
        root_kind[n_roots] = KIND_PATH;
        r_seg[n_roots] = s; r_len[n_roots] = n; r_src[n_roots] = vi;
        root_src[n_roots] = gid(&w, vi); root_dst[n_roots] = gid(&w, end);
        n_roots++;
        if (owner[vi] == 0)
            owner[vi] = n_roots;
        claim(owner, n_roots, w.wnxt, s, n);
        n_paths++;
    }

    /* 2) EB cycles. */
    for (i64 i = 0; i < n_eb; i++) {
        i64 vi = eb[i], s = w.wpos;
        i64 end = walk(&w, vi), n = w.wpos - s;
        if (n == 0) {
            n_trivial++;
            continue;
        }
        if (validate && end != vi) {
            info[0] = gid(&w, vi); info[1] = gid(&w, end);
            rc = P1_ERR_LEMMA2_EB;
            goto done;
        }
        root_kind[n_roots] = KIND_CYCLE;
        r_seg[n_roots] = s; r_len[n_roots] = n; r_src[n_roots] = vi;
        root_src[n_roots] = root_dst[n_roots] = gid(&w, vi);
        n_roots++;
        if (owner[vi] == 0)
            owner[vi] = n_roots;
        claim(owner, n_roots, w.wnxt, s, n);
        n_eb_cycles++;
    }

    /* 3) internal-vertex cycles, in first-unvisited-edge order. Edge k
     * is rescanned after its walk: only a parity violation leaves it
     * unvisited, and the oracle then walks from it again too. */
    for (i64 k = 0; k < m;) {
        if (w.visited[k]) {
            k++;
            continue;
        }
        i64 ui = eu_i[k], s = w.wpos;
        i64 end = walk(&w, ui), n = w.wpos - s;
        if (validate && end != ui) {
            info[0] = gid(&w, ui); info[1] = gid(&w, end);
            rc = P1_ERR_LEMMA2_IV;
            goto done;
        }
        /* mergeInto: the first junction (start, then walk order) that an
         * existing root owns is the pivot. */
        i64 pivot = -1, pivot_root1 = 0, rot = 0;
        if (owner[ui] != 0) {
            pivot = ui;
            pivot_root1 = owner[ui];
        } else {
            for (i64 j = s; j < s + n; j++) {
                if (owner[w.wnxt[j]] != 0) {
                    pivot = w.wnxt[j];
                    pivot_root1 = owner[pivot];
                    rot = j - s + 1;
                    break;
                }
            }
        }
        if (pivot < 0) {
            /* Disconnected live local graph: keep as an anchored cycle. */
            root_kind[n_roots] = KIND_CYCLE;
            r_seg[n_roots] = s; r_len[n_roots] = n; r_src[n_roots] = ui;
            root_src[n_roots] = root_dst[n_roots] = gid(&w, ui);
            n_roots++;
            owner[ui] = n_roots;
            claim(owner, n_roots, w.wnxt, s, n);
            n_anchored++;
            continue;
        }
        rotate2(w.wenc, w.wnxt, s, n, rot);
        c_seg[n_cycles] = s; c_len[n_cycles] = n; c_next[n_cycles] = 0;
        c_root[n_cycles] = pivot_root1 - 1;
        c_piv[n_cycles] = pivot;
        n_cycles++;
        if (att_head[pivot] == 0)
            att_head[pivot] = n_cycles;
        else
            c_next[att_tail[pivot] - 1] = n_cycles;
        att_tail[pivot] = n_cycles;
        r_natt[pivot_root1 - 1]++;
        claim(owner, pivot_root1, w.wnxt, s, n);
        n_merged++;
    }

    if (validate) {
        for (i64 k = 0; k < m; k++) {
            if (!w.visited[k]) {
                rc = P1_ERR_UNVISITED;
                goto done;
            }
        }
    }

    /* 4) splice each root's attached cycles depth-first: the cycles
     * attached at a junction follow the first arrival there, in attach
     * order. Frames are (cursor, end) pairs over the walk buffer. */
    frames = malloc((size_t)(2 * (n_cycles + 1)) * sizeof(i64));
    if (!frames) {
        rc = P1_ERR_NOMEM;
        goto done;
    }
    i64 o = 0;
    for (i64 r = 0; r < n_roots; r++) {
        i64 start = o, root1 = r + 1;
        if (r_natt[r] == 0) {
            for (i64 j = r_seg[r]; j < r_seg[r] + r_len[r]; j++) {
                out_enc[o] = w.wenc[j];
                out_dst[o] = gid(&w, w.wnxt[j]);
                o++;
            }
            root_len[r] = o - start;
            continue;
        }
        i64 sp = 0, spliced = 0;
        frames[0] = r_seg[r];
        frames[1] = r_seg[r] + r_len[r];
        sp = 1;
        i64 x = r_src[r];
        for (;;) {
            /* A vertex's cycles are attached to the root owning it; other
             * roots passing through it leave them alone. */
            if (att_head[x] != 0 && owner[x] == root1) {
                /* Push the list in reverse so the first attached cycle
                 * is expanded first. */
                i64 cnt = 0;
                for (i64 c = att_head[x]; c != 0; c = c_next[c - 1])
                    cnt++;
                i64 slot = sp + cnt - 1;
                for (i64 c = att_head[x]; c != 0; c = c_next[c - 1]) {
                    frames[2 * slot] = c_seg[c - 1];
                    frames[2 * slot + 1] = c_seg[c - 1] + c_len[c - 1];
                    slot--;
                }
                sp += cnt;
                spliced += cnt;
                att_head[x] = 0;
            }
            while (sp > 0 && frames[2 * (sp - 1)] == frames[2 * (sp - 1) + 1])
                sp--;
            if (sp == 0)
                break;
            i64 j = frames[2 * (sp - 1)]++;
            out_enc[o] = w.wenc[j];
            x = w.wnxt[j];
            out_dst[o] = gid(&w, x);
            o++;
        }
        root_len[r] = o - start;
        if (spliced != r_natt[r]) {
            i64 k = 0;
            for (i64 c = 0; c < n_cycles; c++) {
                if (c_root[c] != r)
                    continue;
                if (att_head[c_piv[c]] != 0)
                    keep_smallest(info + 1, &k, 8, gid(&w, c_piv[c]));
            }
            info[0] = k;
            rc = P1_ERR_UNSPLICED;
            goto done;
        }
    }

    counts[0] = n_roots;
    counts[1] = n_paths;
    counts[2] = n_eb_cycles;
    counts[3] = n_merged;
    counts[4] = n_anchored;
    counts[5] = n_trivial;

done:
    free(w.skip); free(w.visited); free(w.wenc); free(w.wnxt);
    free(owner); free(att_head); free(att_tail);
    free(r_seg); free(r_len); free(r_src); free(r_natt);
    free(c_seg); free(c_len); free(c_next); free(c_root); free(c_piv);
    free(frames);
    return rc;
}

/* BFS order over all n vertices; ``order`` doubles as the FIFO queue.
 * Returns the number of vertices placed (n on success, -1 on no memory). */
i64 bfs_order(i64 n, const i64 *offsets, const i64 *targets,
              const i64 *starts, i64 *order)
{
    uint8_t *seen = calloc((size_t)(n > 0 ? n : 1), 1);
    if (!seen)
        return -1;
    i64 head = 0, tail = 0;
    for (i64 i = 0; i < n; i++) {
        i64 s = starts[i];
        if (seen[s])
            continue;
        seen[s] = 1;
        order[tail++] = s;
        while (head < tail) {
            i64 x = order[head++];
            for (i64 p = offsets[x]; p < offsets[x + 1]; p++) {
                i64 t = targets[p];
                if (!seen[t]) {
                    seen[t] = 1;
                    order[tail++] = t;
                }
            }
        }
    }
    free(seen);
    return tail;
}

/* LDG placement of ``order`` (part[] preset to -1, load[] to 0). Scores use
 * the same float64 operations, in the same order, as the NumPy loop, so
 * ties and rounding resolve identically. Returns 0, or -1 on no memory. */
i64 ldg_partition(i64 n, i64 n_parts, i64 capacity, const i64 *offsets,
                  const i64 *targets, const i64 *order, i64 *part, i64 *load)
{
    i64 *cnt = calloc((size_t)n_parts, sizeof(i64));
    double *score = malloc((size_t)n_parts * sizeof(double));
    if (!cnt || !score) {
        free(cnt);
        free(score);
        return -1;
    }
    for (i64 i = 0; i < n; i++) {
        i64 v = order[i];
        for (i64 p = offsets[v]; p < offsets[v + 1]; p++) {
            i64 k = part[targets[p]];
            if (k >= 0)
                cnt[k]++;
        }
        i64 best = 0;
        for (i64 k = 0; k < n_parts; k++) {
            double s;
            if (load[k] >= capacity)
                s = -__builtin_inf();
            else
                s = (double)cnt[k]
                    * (1.0 - (double)load[k] / (double)capacity);
            score[k] = s;
            if (s > score[best])
                best = k;
            cnt[k] = 0;
        }
        if (score[best] == -__builtin_inf()) {
            best = 0;
            for (i64 k = 1; k < n_parts; k++)
                if (load[k] < load[best])
                    best = k;
        }
        part[v] = best;
        load[best]++;
    }
    free(cnt);
    free(score);
    return 0;
}
