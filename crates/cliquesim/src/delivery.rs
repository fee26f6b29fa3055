//! Pluggable per-round message-delivery backends.
//!
//! The engine's delivery state is a pair of double-buffered sender-major
//! buffers: nodes write round `r`'s sends into buffer `r % 2` and read round
//! `r-1`'s sends from the other. Historically both buffers were dense
//! `n × n` [`BitString`] matrices — quadratic memory even when the traffic
//! is linear (broadcast-only runs, CONGEST rings, crash-heavy fault plans).
//!
//! This module abstracts the buffer behind the crate-internal `DeliveryBuf`
//! trait and
//! provides two implementations the engine picks between per run (see
//! [`DeliveryMode`]):
//!
//! * `DenseBuf` — the original flat `n × n` matrix. Best when most ordered
//!   pairs exchange a message most rounds (all-to-all routing).
//! * `SparseBuf` — one compacted edge list per sender (a `SparseRow`):
//!   a shared broadcast payload plus sorted `(recipient, payload)` override
//!   entries. A broadcast round stores **one** payload per sender instead of
//!   `n - 1` clones, and a ring round stores two entries per sender, so the
//!   footprint is `O(edges)` rather than `O(n²)`.
//!
//! Both backends produce bit-identical outputs, transcripts, reports, and
//! [`crate::RunStats`] — cc-testkit's differential runners check every
//! conformance family against all backends across pool shapes.
//!
//! Buffers are checked out of a [`DeliveryArena`] at the start of a run and
//! returned at the end, so repeated runs (a [`crate::Session`]'s phases)
//! reuse the same allocations: steady-state rounds allocate nothing in
//! either backend.

use std::ops::Range;

use crate::bits::{BitString, EMPTY};
use crate::node::{Inbox, Outbox};

/// Which delivery backend the engine uses for a run.
///
/// Attach with [`crate::Engine::with_delivery`]; the default is
/// [`DeliveryMode::Auto`]. Whatever the choice, results are bit-identical —
/// only memory footprint and wall-clock differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Decide per run from the engine's configuration: broadcast-only mode,
    /// a sparse CONGEST topology (≤ 25% of ordered pairs adjacent), or a
    /// fault plan that crashes at least half the nodes select
    /// [`DeliveryMode::Sparse`]; everything else gets
    /// [`DeliveryMode::Dense`].
    #[default]
    Auto,
    /// Always use the dense `n × n` double-buffered matrices.
    Dense,
    /// Always use the compacted per-sender edge lists.
    Sparse,
}

impl DeliveryMode {
    /// Short lowercase name (`"auto"`, `"dense"`, `"sparse"`), used in
    /// replayable test labels such as `apsp[64, 7]@sparse`.
    pub fn tag(self) -> &'static str {
        match self {
            DeliveryMode::Auto => "auto",
            DeliveryMode::Dense => "dense",
            DeliveryMode::Sparse => "sparse",
        }
    }
}

/// Reusable backing storage for the engine's delivery buffers.
///
/// A run checks its buffer pair out at the start and returns it at the end,
/// so the arena holds at most one dense pair and one sparse pair. A
/// [`crate::Session`] owns one (and [`crate::Session::with_arena`] threads
/// one through successive sessions), making every phase after the first
/// allocation-free in steady state; the plain [`crate::Engine`] entry
/// points create a fresh arena per run. Statistics are unaffected by
/// reuse: all accounting is in terms of logical messages, never retained
/// capacity.
#[derive(Debug, Default)]
pub struct DeliveryArena {
    dense: Option<[DenseBuf; 2]>,
    sparse: Option<[SparseBuf; 2]>,
}

impl DeliveryArena {
    /// An empty arena; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of retained message slots across both backends and both
    /// buffers of each pair — the delivery-buffer footprint in units of
    /// payload slots. A dense pair contributes `2·n²`; a sparse pair
    /// contributes one broadcast slot plus the override entries per sender
    /// row, i.e. `O(n + edges)`.
    pub fn slot_footprint(&self) -> usize {
        let dense = self
            .dense
            .as_ref()
            .map_or(0, |b| b[0].slots.len() + b[1].slots.len());
        let sparse = self.sparse.as_ref().map_or(0, |b| {
            b.iter()
                .flat_map(|buf| buf.rows.iter())
                .map(|r| 1 + r.slots.len())
                .sum()
        });
        dense + sparse
    }
}

/// A double-buffered delivery backend: everything the engine's round loop
/// needs, expressed over a flat slice of `Slot`s so the worker pool can
/// carve disjoint per-worker ranges.
///
/// `Slot` granularity differs per backend — a dense buffer has `n²`
/// [`BitString`] slots (one per ordered pair), a sparse buffer has `n`
/// [`SparseRow`] slots (one per sender) — which is why carving goes through
/// [`DeliveryBuf::slot_range`] and row addressing is relative to the carved
/// slice.
pub(crate) trait DeliveryBuf: Sized + Send {
    /// Element type of the flat slot slice. Pool workers write their own
    /// rows (`Send`) and all read the previous round's buffer (`Sync`).
    type Slot: Send + Sync;

    /// Check a buffer pair out of the arena (reusing a retained pair of the
    /// right size) and reset it: round 0 reads the previous-round buffer
    /// without clearing it first, so stale content from an earlier run must
    /// be gone.
    fn take(arena: &mut DeliveryArena, n: usize) -> [Self; 2];

    /// Return the pair to the arena for the next run.
    fn put(arena: &mut DeliveryArena, bufs: [Self; 2]);

    /// The full slot slice.
    fn slots(&self) -> &[Self::Slot];

    /// The full slot slice, mutably.
    fn slots_mut(&mut self) -> &mut [Self::Slot];

    /// Slot range owned by a worker stepping nodes `lo..hi`.
    fn slot_range(n: usize, lo: usize, hi: usize) -> Range<usize>;

    /// Clear sender row `row` (relative to `slots`) in place, retaining
    /// capacity.
    fn clear_row(slots: &mut [Self::Slot], n: usize, row: usize);

    /// Finish sender row `row` after its node stepped (the sparse backend
    /// sorts override entries here so later reads can binary-search).
    fn seal_row(slots: &mut [Self::Slot], n: usize, row: usize);

    /// Outbox over sender row `row` (relative) for node `me` (absolute).
    fn outbox<'a>(slots: &'a mut [Self::Slot], n: usize, row: usize, me: usize) -> Outbox<'a>;

    /// Inbox for node `me` over a full previous-round buffer.
    fn inbox<'a>(slots: &'a [Self::Slot], n: usize, me: usize) -> Inbox<'a>;

    /// Iterate the non-empty messages of sealed sender row `row` (relative)
    /// for node `me` (absolute), as `(recipient, payload)` with recipients
    /// ascending — the order the validation passes and accounting rely on.
    fn row_iter<'a>(slots: &'a [Self::Slot], n: usize, row: usize, me: usize) -> RowIter<'a>;

    /// Read-only whole-buffer view for bookkeeping (transcripts, crash
    /// charging, undelivered scans).
    fn view<'a>(slots: &'a [Self::Slot], n: usize) -> BufView<'a>;

    /// Mutable whole-buffer view for the adversary hooks.
    fn view_mut<'a>(slots: &'a mut [Self::Slot], n: usize) -> BufViewMut<'a>;
}

/// The dense backend: a flat sender-major `n × n` matrix of message slots,
/// `slots[v*n + u]` = payload `v → u`.
#[derive(Debug)]
pub(crate) struct DenseBuf {
    n: usize,
    slots: Vec<BitString>,
}

impl DenseBuf {
    fn fresh(n: usize) -> Self {
        Self {
            n,
            slots: vec![BitString::new(); n * n],
        }
    }
}

impl DeliveryBuf for DenseBuf {
    type Slot = BitString;

    fn take(arena: &mut DeliveryArena, n: usize) -> [Self; 2] {
        match arena.dense.take() {
            Some(mut bufs) if bufs[0].n == n => {
                for b in &mut bufs {
                    for m in &mut b.slots {
                        m.clear();
                    }
                }
                bufs
            }
            _ => [Self::fresh(n), Self::fresh(n)],
        }
    }

    fn put(arena: &mut DeliveryArena, bufs: [Self; 2]) {
        arena.dense = Some(bufs);
    }

    fn slots(&self) -> &[BitString] {
        &self.slots
    }

    fn slots_mut(&mut self) -> &mut [BitString] {
        &mut self.slots
    }

    fn slot_range(n: usize, lo: usize, hi: usize) -> Range<usize> {
        lo * n..hi * n
    }

    fn clear_row(slots: &mut [BitString], n: usize, row: usize) {
        for m in &mut slots[row * n..(row + 1) * n] {
            m.clear();
        }
    }

    fn seal_row(_slots: &mut [BitString], _n: usize, _row: usize) {}

    fn outbox<'a>(slots: &'a mut [BitString], n: usize, row: usize, me: usize) -> Outbox<'a> {
        Outbox::new(&mut slots[row * n..(row + 1) * n], me)
    }

    fn inbox<'a>(slots: &'a [BitString], n: usize, me: usize) -> Inbox<'a> {
        Inbox::transposed(slots, n, me)
    }

    fn row_iter<'a>(slots: &'a [BitString], n: usize, row: usize, _me: usize) -> RowIter<'a> {
        RowIter::Dense {
            row: &slots[row * n..(row + 1) * n],
            u: 0,
        }
    }

    fn view<'a>(slots: &'a [BitString], n: usize) -> BufView<'a> {
        BufView::Dense { slots, n }
    }

    fn view_mut<'a>(slots: &'a mut [BitString], n: usize) -> BufViewMut<'a> {
        BufViewMut::Dense { slots, n }
    }
}

/// The sparse backend: one [`SparseRow`] per sender.
#[derive(Debug)]
pub(crate) struct SparseBuf {
    n: usize,
    rows: Vec<SparseRow>,
}

impl SparseBuf {
    fn fresh(n: usize) -> Self {
        Self {
            n,
            rows: (0..n).map(|_| SparseRow::default()).collect(),
        }
    }
}

impl DeliveryBuf for SparseBuf {
    type Slot = SparseRow;

    fn take(arena: &mut DeliveryArena, n: usize) -> [Self; 2] {
        match arena.sparse.take() {
            Some(mut bufs) if bufs[0].n == n => {
                for b in &mut bufs {
                    for r in &mut b.rows {
                        r.clear();
                    }
                }
                bufs
            }
            _ => [Self::fresh(n), Self::fresh(n)],
        }
    }

    fn put(arena: &mut DeliveryArena, bufs: [Self; 2]) {
        arena.sparse = Some(bufs);
    }

    fn slots(&self) -> &[SparseRow] {
        &self.rows
    }

    fn slots_mut(&mut self) -> &mut [SparseRow] {
        &mut self.rows
    }

    fn slot_range(_n: usize, lo: usize, hi: usize) -> Range<usize> {
        lo..hi
    }

    fn clear_row(slots: &mut [SparseRow], _n: usize, row: usize) {
        slots[row].clear();
    }

    fn seal_row(slots: &mut [SparseRow], _n: usize, row: usize) {
        slots[row].seal();
    }

    fn outbox<'a>(slots: &'a mut [SparseRow], n: usize, row: usize, me: usize) -> Outbox<'a> {
        Outbox::sparse(&mut slots[row], n, me)
    }

    fn inbox<'a>(slots: &'a [SparseRow], n: usize, me: usize) -> Inbox<'a> {
        Inbox::sparse(slots, n, me)
    }

    fn row_iter<'a>(slots: &'a [SparseRow], n: usize, row: usize, me: usize) -> RowIter<'a> {
        let r = &slots[row];
        if r.bcast.is_empty() {
            RowIter::SparseEntries {
                entries: r.entries(),
                i: 0,
            }
        } else {
            RowIter::SparseBcast {
                row: r,
                n,
                me,
                u: 0,
                e: 0,
            }
        }
    }

    fn view<'a>(slots: &'a [SparseRow], _n: usize) -> BufView<'a> {
        BufView::Sparse { rows: slots }
    }

    fn view_mut<'a>(slots: &'a mut [SparseRow], n: usize) -> BufViewMut<'a> {
        BufViewMut::Sparse { rows: slots, n }
    }
}

/// One sender's messages for one round in the sparse backend: an optional
/// broadcast payload shared by every recipient, plus per-recipient override
/// entries. An override (even an empty one) beats the broadcast payload for
/// its recipient, mirroring the dense backend's last-write-wins slots; the
/// broadcast payload being empty means "no broadcast".
#[derive(Debug, Default)]
pub(crate) struct SparseRow {
    /// Payload sent to every non-overridden recipient (empty = none).
    bcast: BitString,
    /// Number of live entries at the front of `slots`.
    live: usize,
    /// Override entries `(recipient, payload)`. `[..live]` is this round's
    /// data (sorted by recipient once sealed); the tail is spare capacity
    /// retained across rounds so steady-state sends allocate nothing.
    slots: Vec<(u32, BitString)>,
}

impl SparseRow {
    /// Reset for a new round, retaining all payload allocations.
    fn clear(&mut self) {
        self.bcast.clear();
        self.live = 0;
    }

    /// Record a unicast (last write to a recipient wins, like a dense slot).
    pub(crate) fn send(&mut self, to: u32, msg: BitString) {
        for e in &mut self.slots[..self.live] {
            if e.0 == to {
                e.1 = msg;
                return;
            }
        }
        if self.live < self.slots.len() {
            self.slots[self.live] = (to, msg);
        } else {
            self.slots.push((to, msg));
        }
        self.live += 1;
    }

    /// Record a broadcast: one shared payload, all previous overrides
    /// discarded (a dense broadcast overwrites every slot).
    pub(crate) fn set_broadcast(&mut self, msg: &BitString) {
        self.bcast.copy_from(msg);
        self.live = 0;
    }

    /// Sort the live entries by recipient so reads can binary-search.
    pub(crate) fn seal(&mut self) {
        self.slots[..self.live].sort_unstable_by_key(|e| e.0);
    }

    /// The message to `u` (requires a sealed row; `u` must not be the
    /// sender itself — the engine's views guard the diagonal).
    pub(crate) fn get(&self, u: usize) -> &BitString {
        match self.slots[..self.live].binary_search_by_key(&(u as u32), |e| e.0) {
            Ok(i) => &self.slots[i].1,
            Err(_) => &self.bcast,
        }
    }

    /// The live (sealed) override entries.
    fn entries(&self) -> &[(u32, BitString)] {
        &self.slots[..self.live]
    }

    /// Visit every non-empty message of this sealed row in ascending
    /// recipient order, mutably. Recipients covered by the shared broadcast
    /// payload get a scratch copy; if the visitor changes it, the changed
    /// copy is materialised as an override entry — the adversary hooks
    /// damage *copies per link*, never the shared payload.
    fn for_each_msg_mut(&mut self, me: usize, n: usize, mut f: impl FnMut(usize, &mut BitString)) {
        if self.bcast.is_empty() {
            for e in &mut self.slots[..self.live] {
                if !e.1.is_empty() {
                    f(e.0 as usize, &mut e.1);
                }
            }
            return;
        }
        let mut pending: Vec<(u32, BitString)> = Vec::new();
        let mut scratch = BitString::new();
        let mut e = 0usize;
        for u in 0..n {
            if u == me {
                continue;
            }
            while e < self.live && (self.slots[e].0 as usize) < u {
                e += 1;
            }
            if e < self.live && self.slots[e].0 as usize == u {
                let m = &mut self.slots[e].1;
                if !m.is_empty() {
                    f(u, m);
                }
            } else {
                scratch.copy_from(&self.bcast);
                f(u, &mut scratch);
                if scratch != self.bcast {
                    pending.push((u as u32, scratch.clone()));
                }
            }
        }
        for (u, payload) in pending {
            match self.slots[..self.live].binary_search_by_key(&u, |e| e.0) {
                Ok(_) => unreachable!("pending overrides never duplicate an existing entry"),
                Err(i) => {
                    self.slots.insert(i, (u, payload));
                    self.live += 1;
                }
            }
        }
    }

    /// Visit each distinct non-empty *payload* of this sealed row, with
    /// the number of recipients it reaches. Unlike
    /// [`SparseRow::for_each_msg_mut`], the shared broadcast payload is
    /// handed to the visitor **once** (with multiplicity `n − 1 − live`),
    /// in place — for sweeps that rewrite every copy identically (message
    /// signing/verification), mutating the shared storage is both correct
    /// and preserves the backend's memory sharing. Overrides never target
    /// the sender ([`crate::node::Outbox::send`] rejects self-sends), so
    /// the multiplicity arithmetic needs no diagonal adjustment.
    fn for_each_payload_mut(&mut self, n: usize, mut f: impl FnMut(usize, &mut BitString)) {
        if !self.bcast.is_empty() {
            let covered = n - 1 - self.live;
            if covered > 0 {
                f(covered, &mut self.bcast);
            }
        }
        for e in &mut self.slots[..self.live] {
            if !e.1.is_empty() {
                f(1, &mut e.1);
            }
        }
    }
}

/// Iterator over the non-empty `(recipient, payload)` messages of one
/// sealed sender row, recipients ascending. A concrete enum (rather than
/// `impl Iterator` per backend) so [`DeliveryBuf`] stays object-simple.
pub(crate) enum RowIter<'a> {
    /// Dense row slice; empty slots (including the diagonal) are skipped.
    Dense {
        /// The sender's `n` slots.
        row: &'a [BitString],
        /// Next recipient to inspect.
        u: usize,
    },
    /// Sparse row with no broadcast payload: walk the sorted entries.
    SparseEntries {
        /// The sealed override entries.
        entries: &'a [(u32, BitString)],
        /// Next entry to inspect.
        i: usize,
    },
    /// Sparse row with a broadcast payload: merge the shared payload with
    /// the sorted overrides, two-pointer style.
    SparseBcast {
        /// The sealed row.
        row: &'a SparseRow,
        /// Number of nodes.
        n: usize,
        /// The sender (skipped).
        me: usize,
        /// Next recipient to inspect.
        u: usize,
        /// Cursor into the sorted entries.
        e: usize,
    },
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (usize, &'a BitString);

    fn next(&mut self) -> Option<(usize, &'a BitString)> {
        match self {
            RowIter::Dense { row, u } => {
                let row: &'a [BitString] = row;
                while *u < row.len() {
                    let i = *u;
                    *u += 1;
                    if !row[i].is_empty() {
                        return Some((i, &row[i]));
                    }
                }
                None
            }
            RowIter::SparseEntries { entries, i } => {
                let entries: &'a [(u32, BitString)] = entries;
                while *i < entries.len() {
                    let j = *i;
                    *i += 1;
                    if !entries[j].1.is_empty() {
                        return Some((entries[j].0 as usize, &entries[j].1));
                    }
                }
                None
            }
            RowIter::SparseBcast { row, n, me, u, e } => {
                let row: &'a SparseRow = row;
                let entries = row.entries();
                while *u < *n {
                    let cur = *u;
                    *u += 1;
                    if cur == *me {
                        continue;
                    }
                    while *e < entries.len() && (entries[*e].0 as usize) < cur {
                        *e += 1;
                    }
                    let m = if *e < entries.len() && entries[*e].0 as usize == cur {
                        &entries[*e].1
                    } else {
                        &row.bcast
                    };
                    if !m.is_empty() {
                        return Some((cur, m));
                    }
                }
                None
            }
        }
    }
}

/// Read-only view of one whole delivery buffer, backend-erased. Used by the
/// bookkeeping paths (crash charging, undelivered scans, transcripts) so
/// they stay a single implementation across backends.
pub(crate) enum BufView<'a> {
    /// Dense sender-major matrix.
    Dense {
        /// The `n²` slots.
        slots: &'a [BitString],
        /// Number of nodes.
        n: usize,
    },
    /// Sparse per-sender rows.
    Sparse {
        /// The `n` sealed rows.
        rows: &'a [SparseRow],
    },
}

impl<'a> BufView<'a> {
    /// A view over a dense sender-major matrix, for in-crate tests that
    /// drive the adversary hooks directly.
    #[cfg(test)]
    pub(crate) fn dense(slots: &'a [BitString], n: usize) -> Self {
        debug_assert_eq!(slots.len(), n * n);
        BufView::Dense { slots, n }
    }

    /// Number of nodes.
    pub(crate) fn n(&self) -> usize {
        match self {
            BufView::Dense { n, .. } => *n,
            BufView::Sparse { rows } => rows.len(),
        }
    }

    /// The message `v → u` (empty if none; the diagonal is always empty).
    pub(crate) fn get(&self, v: usize, u: usize) -> &'a BitString {
        match self {
            BufView::Dense { slots, n } => {
                let slots: &'a [BitString] = slots;
                &slots[v * *n + u]
            }
            BufView::Sparse { rows } => {
                let rows: &'a [SparseRow] = rows;
                if u == v {
                    &EMPTY
                } else {
                    rows[v].get(u)
                }
            }
        }
    }
}

/// Mutable view of one whole delivery buffer, backend-erased. The adversary
/// hooks (link faults, Byzantine rewrites) mutate messages through this so
/// their sweep order and semantics are backend-independent.
pub(crate) enum BufViewMut<'a> {
    /// Dense sender-major matrix.
    Dense {
        /// The `n²` slots.
        slots: &'a mut [BitString],
        /// Number of nodes.
        n: usize,
    },
    /// Sparse per-sender rows.
    Sparse {
        /// The `n` sealed rows.
        rows: &'a mut [SparseRow],
        /// Number of nodes.
        n: usize,
    },
}

impl<'a> BufViewMut<'a> {
    /// A mutable view over a dense sender-major matrix, for in-crate tests
    /// that drive the adversary hooks directly.
    #[cfg(test)]
    pub(crate) fn dense(slots: &'a mut [BitString], n: usize) -> Self {
        debug_assert_eq!(slots.len(), n * n);
        BufViewMut::Dense { slots, n }
    }

    /// Number of nodes.
    pub(crate) fn n(&self) -> usize {
        match self {
            BufViewMut::Dense { n, .. } | BufViewMut::Sparse { n, .. } => *n,
        }
    }

    /// Visit sender `v`'s non-empty messages in ascending recipient order,
    /// mutably — the adversary sweep order both backends share.
    pub(crate) fn for_each_msg_mut(&mut self, v: usize, f: impl FnMut(usize, &mut BitString)) {
        match self {
            BufViewMut::Dense { slots, n } => {
                let n = *n;
                let mut f = f;
                for u in 0..n {
                    if u == v {
                        continue;
                    }
                    let m = &mut slots[v * n + u];
                    if !m.is_empty() {
                        f(u, m);
                    }
                }
            }
            BufViewMut::Sparse { rows, n } => rows[v].for_each_msg_mut(v, *n, f),
        }
    }

    /// Visit sender `v`'s distinct non-empty payloads with their recipient
    /// multiplicities (dense: always 1; sparse: the shared broadcast
    /// payload once with its coverage, then each override). The sweep for
    /// per-payload rewrites that must treat every copy identically —
    /// equal payloads stay equal, so dense and sparse remain
    /// bit-identical while the sparse backend keeps its sharing.
    pub(crate) fn for_each_payload_mut(&mut self, v: usize, f: impl FnMut(usize, &mut BitString)) {
        match self {
            BufViewMut::Dense { slots, n } => {
                let n = *n;
                let mut f = f;
                for u in 0..n {
                    if u == v {
                        continue;
                    }
                    let m = &mut slots[v * n + u];
                    if !m.is_empty() {
                        f(1, m);
                    }
                }
            }
            BufViewMut::Sparse { rows, n } => rows[v].for_each_payload_mut(*n, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &[bool]) -> BitString {
        BitString::from_bits(s.iter().copied())
    }

    #[test]
    fn sparse_row_send_overrides_and_seals() {
        let mut r = SparseRow::default();
        r.send(3, bits(&[true]));
        r.send(1, bits(&[false, true]));
        r.send(3, bits(&[true, true])); // last write wins
        r.seal();
        assert_eq!(r.get(1), &bits(&[false, true]));
        assert_eq!(r.get(3), &bits(&[true, true]));
        assert!(r.get(2).is_empty(), "no broadcast, no entry");
        // Clear retains the entry allocations but drops the content.
        r.clear();
        r.seal();
        assert!(r.get(1).is_empty());
        assert!(r.get(3).is_empty());
    }

    #[test]
    fn sparse_row_broadcast_then_override() {
        let n = 5;
        let mut r = SparseRow::default();
        r.send(4, bits(&[true, true, true]));
        r.set_broadcast(&bits(&[true, false])); // discards the earlier send
        r.send(2, bits(&[false])); // override one copy
        r.send(3, BitString::new()); // empty override = no message to 3
        r.seal();
        assert_eq!(r.get(1), &bits(&[true, false]));
        assert_eq!(r.get(2), &bits(&[false]));
        assert!(r.get(3).is_empty());
        assert_eq!(r.get(4), &bits(&[true, false]), "broadcast override gone");
        // Row iteration merges broadcast and overrides, recipients ascending.
        let rows = vec![r];
        let got: Vec<(usize, usize)> = SparseBuf::row_iter(&rows, n, 0, 0)
            .map(|(u, m)| (u, m.len()))
            .collect();
        assert_eq!(got, vec![(1, 2), (2, 1), (4, 2)]);
    }

    #[test]
    fn sparse_row_iter_without_broadcast_skips_empties() {
        let mut r = SparseRow::default();
        r.send(2, bits(&[true]));
        r.send(0, BitString::new());
        r.send(4, bits(&[false, false]));
        r.seal();
        let rows = vec![r];
        let got: Vec<usize> = SparseBuf::row_iter(&rows, 6, 0, 1)
            .map(|(u, _)| u)
            .collect();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn for_each_msg_mut_materialises_changed_broadcast_copies() {
        let n = 4;
        let me = 0;
        let mut r = SparseRow::default();
        r.set_broadcast(&bits(&[true, true]));
        r.seal();
        // Damage only recipient 2's copy.
        r.for_each_msg_mut(me, n, |u, m| {
            if u == 2 {
                m.set(0, false);
            }
        });
        assert_eq!(r.get(1), &bits(&[true, true]), "shared payload untouched");
        assert_eq!(r.get(2), &bits(&[false, true]), "changed copy materialised");
        assert_eq!(r.get(3), &bits(&[true, true]));
        // A second sweep sees the override in place of the broadcast copy.
        let mut seen = Vec::new();
        r.for_each_msg_mut(me, n, |u, m| seen.push((u, m.get(0))));
        assert_eq!(seen, vec![(1, true), (2, false), (3, true)]);
    }

    #[test]
    fn views_agree_between_backends() {
        let n = 3;
        // Dense: 0 → 1 and 2 → 0.
        let mut dense = vec![BitString::new(); n * n];
        dense[1] = bits(&[true]);
        dense[2 * n] = bits(&[false, true]);
        // Sparse mirror.
        let mut rows: Vec<SparseRow> = (0..n).map(|_| SparseRow::default()).collect();
        rows[0].send(1, bits(&[true]));
        rows[2].send(0, bits(&[false, true]));
        for r in &mut rows {
            r.seal();
        }
        let dv = BufView::dense(&dense, n);
        let sv = SparseBuf::view(&rows, n);
        assert_eq!(dv.n(), sv.n());
        for v in 0..n {
            for u in 0..n {
                assert_eq!(dv.get(v, u), sv.get(v, u), "({v},{u})");
            }
        }
    }

    #[test]
    fn arena_reuses_and_reports_footprint() {
        let mut arena = DeliveryArena::new();
        assert_eq!(arena.slot_footprint(), 0);
        let bufs = SparseBuf::take(&mut arena, 4);
        SparseBuf::put(&mut arena, bufs);
        // 2 buffers × 4 rows × (1 broadcast slot + 0 entries).
        assert_eq!(arena.slot_footprint(), 8);
        // Same n: the pair is reused, cleared.
        let bufs = SparseBuf::take(&mut arena, 4);
        assert_eq!(arena.slot_footprint(), 0, "checked out");
        assert!(bufs[0]
            .rows
            .iter()
            .all(|r| r.bcast.is_empty() && r.live == 0));
        SparseBuf::put(&mut arena, bufs);
        // Different n: a fresh pair replaces the stale one.
        let bufs = SparseBuf::take(&mut arena, 2);
        assert_eq!(bufs[0].rows.len(), 2);
        SparseBuf::put(&mut arena, bufs);
        assert_eq!(arena.slot_footprint(), 4);

        let dense = DenseBuf::take(&mut arena, 3);
        DenseBuf::put(&mut arena, dense);
        assert_eq!(arena.slot_footprint(), 4 + 2 * 9);
    }

    #[test]
    fn delivery_mode_tags() {
        assert_eq!(DeliveryMode::Auto.tag(), "auto");
        assert_eq!(DeliveryMode::Dense.tag(), "dense");
        assert_eq!(DeliveryMode::Sparse.tag(), "sparse");
        assert_eq!(DeliveryMode::default(), DeliveryMode::Auto);
    }
}
