//! Per-round message delivery.
//!
//! The engine's delivery state is a pair of double-buffered sender-major
//! buffers: nodes write round `r`'s sends into buffer `r % 2` and read round
//! `r-1`'s sends from the other. A buffer holds one compacted edge list per
//! sender (a `SparseRow`): a shared broadcast payload plus `(recipient,
//! payload)` override entries, kept as a recipient array and a payload
//! array that the row allocates on its first entry. A broadcast round
//! stores **one** payload per sender instead of `n - 1` copies, a ring round
//! two entries per sender, and an all-to-all round `n - 1`, so the
//! footprint is `O(n + edges)`.
//!
//! Sends append. A node that addresses its recipients in ascending order
//! (every router does) writes each message in amortised O(1); sealing the
//! row after the step sorts it only if a send went out of order, and then
//! the last write to a recipient wins. Rows keep their entries' allocations
//! across rounds, and never hold more than the `n - 1` recipients they can
//! address.
//!
//! Reads go through a receiver index (`RecvIndex`), rebuilt from the sealed
//! rows by a counting sort: per recipient, the `(sender, entry)` pairs that
//! address it, senders ascending, plus one list of the senders that
//! broadcast. A column walk — an inbox, the undelivered scan, transcripts,
//! churn windows, crash charging — merges the two, so every walk of a round
//! together costs O(n + messages), and a broadcast is never expanded. The
//! index describes what the next round reads: the engine rebuilds it after
//! the step phase, and again after the wire passes, which can materialise a
//! damaged broadcast copy as a new entry.
//!
//! Buffers are checked out of a [`DeliveryArena`] at the start of a run and
//! returned at the end, so repeated runs (a [`crate::Session`]'s phases)
//! reuse the same allocations, the index included.

use crate::bits::{BitString, EMPTY};

/// Reusable backing storage for the engine's delivery buffers.
///
/// A run checks its buffer pair out at the start and returns it at the end,
/// so the arena holds at most one pair. A [`crate::Session`] owns one (and
/// [`crate::Session::with_arena`] threads one through successive sessions),
/// making every phase after the first allocation-free in steady state; the
/// plain [`crate::Engine`] entry points create a fresh arena per run.
/// Statistics are unaffected by reuse: all accounting is in terms of
/// logical messages, never retained capacity.
#[derive(Debug, Default)]
pub struct DeliveryArena {
    bufs: Option<[SparseBuf; 2]>,
}

impl DeliveryArena {
    /// An empty arena; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of retained message slots across both buffers — the
    /// delivery-buffer footprint in units of payload slots: one broadcast
    /// slot plus the retained override entries per sender row. That is
    /// `2·n` after broadcast-only traffic, `O(n + edges)` in general, and
    /// never more than `2·n²`.
    pub fn slot_footprint(&self) -> usize {
        self.bufs.as_ref().map_or(0, |b| {
            b.iter()
                .flat_map(|buf| buf.rows.iter())
                .map(|r| 1 + r.entries.as_ref().map_or(0, |es| es.msgs.len()))
                .sum()
        })
    }

    /// Check the buffer pair out (reusing a retained pair of the right
    /// size) and reset it: round 0 reads the previous-round buffer without
    /// clearing it first, so stale content from an earlier run must be gone.
    pub(crate) fn take(&mut self, n: usize) -> [SparseBuf; 2] {
        match self.bufs.take() {
            Some(mut bufs) if bufs[0].rows.len() == n => {
                for b in &mut bufs {
                    b.reset();
                }
                bufs
            }
            _ => [SparseBuf::fresh(n), SparseBuf::fresh(n)],
        }
    }

    /// Return the pair for the next run.
    pub(crate) fn put(&mut self, bufs: [SparseBuf; 2]) {
        self.bufs = Some(bufs);
    }
}

/// One delivery buffer: a [`SparseRow`] per sender and the receiver index
/// over them.
#[derive(Debug)]
pub(crate) struct SparseBuf {
    rows: Vec<SparseRow>,
    index: RecvIndex,
}

impl SparseBuf {
    fn fresh(n: usize) -> Self {
        let mut buf = Self {
            rows: (0..n).map(|_| SparseRow::default()).collect(),
            index: RecvIndex::default(),
        };
        buf.index.rebuild(&buf.rows);
        buf
    }

    /// Empty every row, retaining allocations, and index the empty rows.
    fn reset(&mut self) {
        for r in &mut self.rows {
            r.clear();
        }
        self.index.rebuild(&self.rows);
    }

    /// The sender rows, for the step phase to write.
    pub(crate) fn rows_mut(&mut self) -> &mut [SparseRow] {
        &mut self.rows
    }

    /// Rebuild the receiver index from the sealed rows, in O(n + entries).
    pub(crate) fn index_receivers(&mut self) {
        self.index.rebuild(&self.rows);
    }

    /// Read-only view, through the index as last built.
    pub(crate) fn view(&self) -> BufView<'_> {
        BufView {
            rows: &self.rows,
            index: &self.index,
        }
    }

    /// Mutable view for the wire passes. They may add entries, so the
    /// caller rebuilds the index afterwards.
    pub(crate) fn view_mut(&mut self) -> BufViewMut<'_> {
        BufViewMut {
            rows: &mut self.rows,
        }
    }
}

/// One sender's messages for one round: an optional broadcast payload
/// shared by every recipient, plus per-recipient override entries. An
/// override (even an empty one) beats the broadcast payload for its
/// recipient; the broadcast payload being empty means "no broadcast".
#[derive(Debug, Default)]
pub(crate) struct SparseRow {
    /// Payload sent to every non-overridden recipient (empty = none).
    bcast: BitString,
    /// The override entries, allocated on the row's first one: a row that
    /// only ever broadcasts is this header and its payload.
    entries: Option<Box<Entries>>,
}

/// A row's override entries, recipients and payloads in parallel arrays:
/// the index build and the searches read the compact recipients, and a
/// reader touches only the payload it is handed.
#[derive(Debug, Default)]
struct Entries {
    /// This round's recipients, `to[i]` for payload `msgs[i]`; sorted and
    /// distinct once sealed.
    to: Vec<u32>,
    /// Payloads. Past `to.len()` they are spare, their allocations kept
    /// across rounds so steady-state sends allocate nothing. Never longer
    /// than `n - 1`.
    msgs: Vec<Slot>,
    /// Whether a send went out of recipient order since the row was last
    /// sealed: the recipients may then be unsorted and repeat.
    unsorted: bool,
    /// Scratch for [`SparseRow::seal`]'s reordering.
    perm: Vec<u32>,
}

/// A payload, aligned so that no payload header straddles two cache lines.
#[derive(Clone, Debug, Default)]
#[repr(align(32))]
pub(crate) struct Slot(BitString);

impl SparseRow {
    /// Reset for a new round, retaining all payload allocations.
    pub(crate) fn clear(&mut self) {
        self.bcast.clear();
        if let Some(es) = &mut self.entries {
            es.to.clear();
            es.unsorted = false;
        }
    }

    /// Number of live override entries.
    fn live(&self) -> usize {
        self.entries.as_ref().map_or(0, |es| es.to.len())
    }

    /// The live recipients and their payloads.
    #[inline]
    fn live_entries(&self) -> (&[u32], &[Slot]) {
        match &self.entries {
            Some(es) => (&es.to, &es.msgs[..es.to.len()]),
            None => (&[], &[]),
        }
    }

    /// The override payload for `to` in an `n`-node clique. A send to a
    /// recipient above the last one appends in O(1); any other send
    /// appends too and marks the row unsorted, so [`SparseRow::seal`]
    /// keeps only the last write to each recipient. A new entry reuses a
    /// spare payload's allocation, stale content included: callers
    /// overwrite it.
    pub(crate) fn entry(&mut self, to: u32, n: usize) -> &mut BitString {
        if self.live() == n - 1 {
            // Full: compact first, so the row never outgrows the n - 1
            // recipients it can address. A sorted full row has them all.
            self.seal();
            if let Ok(i) = self.find(to) {
                let es = self.entries.get_or_insert_with(Box::default);
                return &mut es.msgs[i].0;
            }
        }
        let es = self.entries.get_or_insert_with(Box::default);
        let i = es.to.len();
        match es.to.last() {
            Some(&last) if last == to => return &mut es.msgs[i - 1].0,
            Some(&last) if last > to => es.unsorted = true,
            _ => {}
        }
        es.to.push(to);
        es.spare(i, n)
    }

    /// Record a broadcast: one shared payload, all previous overrides
    /// discarded.
    pub(crate) fn set_broadcast(&mut self, msg: &BitString) {
        self.clear();
        self.bcast.copy_from(msg);
    }

    /// Finish the row after its node stepped. If a send went out of order,
    /// sort the live entries by recipient and keep only the last write to
    /// each; the dropped payloads' allocations join the spare tail. After
    /// this, reads can binary-search and the index sees each link once.
    pub(crate) fn seal(&mut self) {
        let Some(es) = self.entries.as_deref_mut() else {
            return;
        };
        if !es.unsorted {
            return;
        }
        es.unsorted = false;
        let live = es.to.len();
        let to = &es.to;
        let perm = &mut es.perm;
        // The live indices by (recipient, write order): each recipient's
        // run ends with its last write.
        perm.clear();
        perm.extend(0..live as u32);
        perm.sort_unstable_by_key(|&i| (to[i as usize], i));
        // Move each run's last index to the front, in order; the rest,
        // the overwritten entries, end up behind them.
        let mut kept = 0;
        for j in 0..live {
            if j + 1 == live || to[perm[j + 1] as usize] != to[perm[j] as usize] {
                perm.swap(kept, j);
                kept += 1;
            }
        }
        // Put old entry `perm[k]` at position k, one cycle at a time,
        // marking each position done by pointing it at itself.
        for start in 0..live {
            let mut j = start;
            loop {
                let k = perm[j] as usize;
                perm[j] = j as u32;
                if k == start {
                    break;
                }
                es.to.swap(j, k);
                es.msgs.swap(j, k);
                j = k;
            }
        }
        es.to.truncate(kept);
    }

    /// Binary-search a sealed row's entries for recipient `to`.
    #[inline]
    fn find(&self, to: u32) -> Result<usize, usize> {
        self.live_entries().0.binary_search(&to)
    }

    /// The message to `u` (requires a sealed row; `u` must not be the
    /// sender itself — the engine's views guard the diagonal).
    #[inline]
    pub(crate) fn get(&self, u: usize) -> &BitString {
        match self.find(u as u32) {
            Ok(i) => &self.live_entries().1[i].0,
            Err(_) => &self.bcast,
        }
    }

    /// This sealed row's non-empty messages for sender `me`, recipients
    /// ascending.
    pub(crate) fn messages(&self, n: usize, me: usize) -> RowIter<'_> {
        let (to, msgs) = self.live_entries();
        if self.bcast.is_empty() {
            RowIter::Entries { to, msgs, i: 0 }
        } else {
            RowIter::Merged {
                to,
                msgs,
                bcast: &self.bcast,
                n,
                me,
                u: 0,
                e: 0,
            }
        }
    }

    /// Visit every non-empty message of this sealed row in ascending
    /// recipient order — exactly the messages of [`SparseRow::messages`],
    /// in its order — mutably. Override entries are edited in place.
    /// Recipients covered by the shared broadcast payload get a
    /// copy-on-write handle: the payload is copied only if the visitor
    /// writes, and a written copy whose content differs is materialised as
    /// an override entry — the adversary hooks damage *copies per link*,
    /// never the shared payload. New entries take spare payloads and are
    /// sorted in, so a row never holds more than `n - 1` entries however
    /// many copies are damaged over a run.
    fn for_each_msg_mut(&mut self, me: usize, n: usize, mut f: impl FnMut(usize, &mut MsgMut<'_>)) {
        if self.bcast.is_empty() {
            if let Some(es) = &mut self.entries {
                for (i, &u) in es.to.iter().enumerate() {
                    let m = &mut es.msgs[i].0;
                    if !m.is_empty() {
                        f(u as usize, &mut MsgMut::entry(m));
                    }
                }
            }
            return;
        }
        let live = self.live();
        let mut copy = BitString::new();
        let mut e = 0;
        for u in (0..n).filter(|&u| u != me) {
            if let Some(es) = self.entries.as_deref_mut() {
                while e < live && (es.to[e] as usize) < u {
                    e += 1;
                }
                if e < live && es.to[e] as usize == u {
                    let m = &mut es.msgs[e].0;
                    if !m.is_empty() {
                        f(u, &mut MsgMut::entry(m));
                    }
                    continue;
                }
            }
            let written = {
                let mut m = MsgMut {
                    shared: Some(&self.bcast),
                    own: &mut copy,
                };
                f(u, &mut m);
                m.shared.is_none()
            };
            if written && copy != self.bcast {
                let es = self.entries.get_or_insert_with(Box::default);
                let i = es.to.len();
                es.to.push(u as u32);
                std::mem::swap(es.spare(i, n), &mut copy);
            }
        }
        // The new entries ascend among themselves but interleave with the
        // old ones.
        if let Some(es) = &mut self.entries {
            es.unsorted |= live > 0 && es.to.len() > live;
        }
        self.seal();
    }

    /// This sealed row's distinct non-empty payloads as `(copies,
    /// payload)`, in the order [`SparseRow::for_each_payload_mut`] visits
    /// them: the shared broadcast payload once, with the `n − 1 − live`
    /// recipients no override hides it from, then each override once. The
    /// copies add up to the length of [`SparseRow::messages`], so a
    /// row-wide tally or model check costs O(1 + overrides) however many
    /// recipients a broadcast reaches.
    pub(crate) fn payloads(&self, n: usize) -> impl Iterator<Item = (usize, &BitString)> {
        let (_, msgs) = self.live_entries();
        let covered = n - 1 - msgs.len();
        let bcast = (covered > 0 && !self.bcast.is_empty()).then_some((covered, &self.bcast));
        bcast.into_iter().chain(
            msgs.iter()
                .map(|m| (1, &m.0))
                .filter(|(_, m)| !m.is_empty()),
        )
    }

    /// Visit each distinct non-empty *payload* of this sealed row, with
    /// the number of recipients it reaches. Unlike
    /// [`SparseRow::for_each_msg_mut`], the shared broadcast payload is
    /// handed to the visitor **once** (with multiplicity `n − 1 − live`),
    /// in place — for sweeps that rewrite every copy identically (message
    /// signing/verification), mutating the shared storage is both correct
    /// and keeps the broadcast stored once. Overrides never target the
    /// sender ([`crate::node::Outbox::send`] rejects self-sends), so the
    /// multiplicity arithmetic needs no diagonal adjustment.
    fn for_each_payload_mut(&mut self, n: usize, mut f: impl FnMut(usize, &mut BitString)) {
        let live = self.live();
        if !self.bcast.is_empty() {
            let covered = n - 1 - live;
            if covered > 0 {
                f(covered, &mut self.bcast);
            }
        }
        if let Some(es) = &mut self.entries {
            for m in &mut es.msgs[..live] {
                if !m.0.is_empty() {
                    f(1, &mut m.0);
                }
            }
        }
    }
}

/// One message as a wire pass sees it: an override entry, edited in place,
/// or a broadcast copy, which shares the row's payload until the pass first
/// writes to it. It reads as the message through `Deref`.
pub(crate) struct MsgMut<'a> {
    /// The shared broadcast payload, while this copy is unwritten.
    shared: Option<&'a BitString>,
    /// The entry, or the scratch a broadcast copy is made in.
    own: &'a mut BitString,
}

impl<'a> MsgMut<'a> {
    fn entry(own: &'a mut BitString) -> Self {
        Self { shared: None, own }
    }

    /// The message, writable; a broadcast copy is made on the first call.
    pub(crate) fn to_mut(&mut self) -> &mut BitString {
        if let Some(shared) = self.shared.take() {
            self.own.copy_from(shared);
        }
        self.own
    }
}

impl std::ops::Deref for MsgMut<'_> {
    type Target = BitString;

    fn deref(&self) -> &BitString {
        match self.shared {
            Some(shared) => shared,
            None => self.own,
        }
    }
}

impl Entries {
    /// Payload `i`, the one for the recipient just pushed, pushing a new
    /// one if the spare tail is used up. Growth doubles but stops at
    /// `n - 1`.
    fn spare(&mut self, i: usize, n: usize) -> &mut BitString {
        if i == self.msgs.len() {
            let len = self.msgs.len();
            if len == self.msgs.capacity() {
                self.msgs.reserve_exact(len.max(4).min(n - 1 - len));
            }
            self.msgs.push(Slot::default());
        }
        &mut self.msgs[i].0
    }
}

/// Iterator over the non-empty `(recipient, payload)` messages of one
/// sealed sender row, recipients ascending.
pub(crate) enum RowIter<'a> {
    /// A row with no broadcast payload: walk the sorted entries.
    Entries {
        /// The sealed recipients.
        to: &'a [u32],
        /// Their payloads.
        msgs: &'a [Slot],
        /// Next entry to inspect.
        i: usize,
    },
    /// A row with a broadcast payload: merge the shared payload with the
    /// sorted overrides, two-pointer style.
    Merged {
        /// The sealed recipients.
        to: &'a [u32],
        /// Their payloads.
        msgs: &'a [Slot],
        /// The shared payload.
        bcast: &'a BitString,
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

    #[inline]
    fn next(&mut self) -> Option<(usize, &'a BitString)> {
        match self {
            RowIter::Entries { to, msgs, i } => {
                let (to, msgs): (&'a [u32], &'a [Slot]) = (to, msgs);
                while *i < to.len() {
                    let j = *i;
                    *i += 1;
                    if !msgs[j].0.is_empty() {
                        return Some((to[j] as usize, &msgs[j].0));
                    }
                }
                None
            }
            RowIter::Merged {
                to,
                msgs,
                bcast,
                n,
                me,
                u,
                e,
            } => {
                let (to, msgs, bcast): (&'a [u32], &'a [Slot], &'a BitString) = (to, msgs, bcast);
                while *u < *n {
                    let cur = *u;
                    *u += 1;
                    if cur == *me {
                        continue;
                    }
                    while *e < to.len() && (to[*e] as usize) < cur {
                        *e += 1;
                    }
                    let m = if *e < to.len() && to[*e] as usize == cur {
                        &msgs[*e].0
                    } else {
                        bcast
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

/// The receiver index of one buffer: which entries address each recipient,
/// and which senders broadcast. Built by [`RecvIndex::rebuild`] from sealed
/// rows; its `Vec`s keep their capacity across rounds and runs.
#[derive(Debug, Default)]
struct RecvIndex {
    /// `pairs[start[u]..start[u + 1]]` are the entries addressed to `u`;
    /// `n + 1` offsets.
    start: Vec<u32>,
    /// `(sender, entry)`: entry `entry` of sender row `sender`, senders
    /// ascending per recipient. Empty entries are listed too: an empty
    /// override still hides its sender's broadcast.
    pairs: Vec<(u32, u32)>,
    /// The senders with a non-empty broadcast payload, ascending.
    bcast: Vec<u32>,
}

impl RecvIndex {
    /// Index `rows` by a counting sort over their entries, in O(n + entries).
    fn rebuild(&mut self, rows: &[SparseRow]) {
        let n = rows.len();
        let total: usize = rows.iter().map(SparseRow::live).sum();
        assert!(
            total <= u32::MAX as usize,
            "{total} messages in one round overflow the receiver index"
        );
        let start = &mut self.start;
        start.clear();
        start.resize(n + 1, 0);
        self.bcast.clear();
        for (v, row) in rows.iter().enumerate() {
            if !row.bcast.is_empty() {
                self.bcast.push(v as u32);
            }
            for &to in row.live_entries().0 {
                start[to as usize + 1] += 1;
            }
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        // Every pair below `total` is overwritten next, so the vector only
        // ever grows: no round pays for zeroing it.
        if self.pairs.len() < total {
            self.pairs.resize(total, (0, 0));
        }
        // Fill with `start[u]` as recipient u's cursor, which leaves it at
        // u + 1's first pair; shifting by one restores the offsets.
        for (v, row) in rows.iter().enumerate() {
            for (i, &to) in row.live_entries().0.iter().enumerate() {
                let cursor = &mut start[to as usize];
                self.pairs[*cursor as usize] = (v as u32, i as u32);
                *cursor += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
    }
}

/// The non-empty messages to one recipient as `(sender, payload)`, senders
/// ascending: its index pairs merged with the broadcasting senders.
pub(crate) struct Column<'a> {
    rows: &'a [SparseRow],
    /// The recipient's pairs not yet visited.
    pairs: &'a [(u32, u32)],
    /// The broadcasting senders not yet visited.
    bcast: &'a [u32],
    /// The recipient (its own broadcast is skipped).
    me: u32,
}

impl<'a> Iterator for Column<'a> {
    type Item = (usize, &'a BitString);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'a BitString)> {
        let rows = self.rows;
        loop {
            let next_bcast = self.bcast.first().copied();
            match self.pairs.split_first() {
                // An override, even an empty one, beats its sender's
                // broadcast.
                Some((&(v, e), rest)) if next_bcast.is_none_or(|b| v <= b) => {
                    self.pairs = rest;
                    if next_bcast == Some(v) {
                        self.bcast = &self.bcast[1..];
                    }
                    let m = &rows[v as usize].live_entries().1[e as usize].0;
                    if !m.is_empty() {
                        return Some((v as usize, m));
                    }
                }
                _ => {
                    let (&v, rest) = self.bcast.split_first()?;
                    self.bcast = rest;
                    if v != self.me {
                        // The index lists only non-empty broadcasts, so
                        // this arm needs no emptiness check.
                        let m = &rows[v as usize].bcast;
                        debug_assert!(!m.is_empty(), "index lists an empty broadcast");
                        return Some((v as usize, m));
                    }
                }
            }
        }
    }
}

/// Read-only view of one whole delivery buffer: what a step phase reads,
/// and what the bookkeeping (crash charging, undelivered scans,
/// transcripts) walks.
#[derive(Clone, Copy)]
pub(crate) struct BufView<'a> {
    rows: &'a [SparseRow],
    index: &'a RecvIndex,
}

impl<'a> BufView<'a> {
    /// Number of nodes.
    pub(crate) fn n(&self) -> usize {
        self.rows.len()
    }

    /// The message `v → u` (empty if none; the diagonal is always empty).
    #[inline]
    pub(crate) fn get(&self, v: usize, u: usize) -> &'a BitString {
        if u == v {
            &EMPTY
        } else {
            self.rows[v].get(u)
        }
    }

    /// Sender `v`'s non-empty messages as `(recipient, payload)`,
    /// recipients ascending.
    pub(crate) fn row(&self, v: usize) -> RowIter<'a> {
        self.rows[v].messages(self.rows.len(), v)
    }

    /// The non-empty messages to `u` as `(sender, payload)`, senders
    /// ascending, through the receiver index.
    #[inline]
    pub(crate) fn column(&self, u: usize) -> Column<'a> {
        let index = self.index;
        Column {
            rows: self.rows,
            pairs: &index.pairs[index.start[u] as usize..index.start[u + 1] as usize],
            bcast: &index.bcast,
            me: u as u32,
        }
    }
}

/// Mutable view of one whole delivery buffer. The adversary hooks (link
/// faults, Byzantine rewrites, the authentication envelope) mutate messages
/// through this.
pub(crate) struct BufViewMut<'a> {
    rows: &'a mut [SparseRow],
}

impl BufViewMut<'_> {
    /// Number of nodes.
    pub(crate) fn n(&self) -> usize {
        self.rows.len()
    }

    /// Sender `v`'s non-empty messages as `(recipient, payload)`,
    /// recipients ascending: the messages
    /// [`BufViewMut::for_each_msg_mut`] visits, in its order.
    pub(crate) fn row(&self, v: usize) -> RowIter<'_> {
        self.rows[v].messages(self.rows.len(), v)
    }

    /// Visit sender `v`'s non-empty messages in ascending recipient order,
    /// mutably, one copy per link (see [`SparseRow::for_each_msg_mut`]).
    pub(crate) fn for_each_msg_mut(&mut self, v: usize, f: impl FnMut(usize, &mut MsgMut<'_>)) {
        let n = self.rows.len();
        self.rows[v].for_each_msg_mut(v, n, f);
    }

    /// Sender `v`'s shared payload if its row only broadcasts: a non-empty
    /// broadcast payload and no overrides, so its messages are `n − 1`
    /// equal copies.
    pub(crate) fn pure_broadcast(&self, v: usize) -> Option<&BitString> {
        let row = &self.rows[v];
        (!row.bcast.is_empty() && row.live() == 0).then_some(&row.bcast)
    }

    /// Empty sender `v`'s copies to `recipients`, ascending: each becomes
    /// an empty override, the entry [`BufViewMut::for_each_msg_mut`] leaves
    /// when its visitor clears a broadcast copy. The row is sealed once at
    /// the end.
    pub(crate) fn clear_copies(&mut self, v: usize, recipients: impl Iterator<Item = usize>) {
        let n = self.rows.len();
        let row = &mut self.rows[v];
        for u in recipients {
            debug_assert_ne!(u, v, "a sender has no copy to itself");
            row.entry(u as u32, n).clear();
        }
        row.seal();
    }

    /// Sender `v`'s distinct non-empty payloads as `(copies, payload)`: the
    /// ones [`BufViewMut::for_each_payload_mut`] visits, in its order.
    pub(crate) fn payloads(&self, v: usize) -> impl Iterator<Item = (usize, &BitString)> {
        self.rows[v].payloads(self.rows.len())
    }

    /// Visit sender `v`'s distinct non-empty payloads with their recipient
    /// multiplicities: the shared broadcast payload once with its coverage,
    /// then each override. The sweep for per-payload rewrites that must
    /// treat every copy identically — equal payloads stay equal, so a
    /// broadcast stays stored once.
    pub(crate) fn for_each_payload_mut(&mut self, v: usize, f: impl FnMut(usize, &mut BitString)) {
        let n = self.rows.len();
        self.rows[v].for_each_payload_mut(n, f);
    }
}

#[cfg(test)]
impl SparseBuf {
    /// A sealed, indexed buffer holding the non-empty slots of a
    /// sender-major `n × n` matrix (`slots[v*n + u]` = message `v → u`) as
    /// override entries: for in-crate tests that drive the wire passes
    /// directly.
    pub(crate) fn from_matrix(slots: &[BitString], n: usize) -> Self {
        assert_eq!(slots.len(), n * n);
        let mut buf = Self::fresh(n);
        for (v, row) in buf.rows.iter_mut().enumerate() {
            for u in 0..n {
                let m = &slots[v * n + u];
                if !m.is_empty() {
                    row.entry(u as u32, n).copy_from(m);
                }
            }
            row.seal();
        }
        buf.index.rebuild(&buf.rows);
        buf
    }

    /// The buffer as a sender-major `n × n` matrix.
    pub(crate) fn to_matrix(&self) -> Vec<BitString> {
        let n = self.rows.len();
        let view = self.view();
        (0..n * n).map(|i| view.get(i / n, i % n).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(s: &[bool]) -> BitString {
        BitString::from_bits(s.iter().copied())
    }

    fn uint(value: u64, width: usize) -> BitString {
        let mut m = BitString::new();
        m.push_uint(value, width);
        m
    }

    /// The live entries as `(recipient, payload)`.
    fn entries(r: &SparseRow) -> Vec<(u32, BitString)> {
        let (to, msgs) = r.live_entries();
        to.iter()
            .copied()
            .zip(msgs.iter().map(|m| m.0.clone()))
            .collect()
    }

    /// Entries the row keeps, live and spare.
    fn kept(r: &SparseRow) -> usize {
        r.entries.as_ref().map_or(0, |es| es.msgs.len())
    }

    fn unsorted(r: &SparseRow) -> bool {
        r.entries.as_ref().is_some_and(|es| es.unsorted)
    }

    #[test]
    fn sparse_row_send_overrides_and_seals() {
        let n = 5;
        let mut r = SparseRow::default();
        *r.entry(3, n) = bits(&[true]);
        *r.entry(1, n) = bits(&[false, true]);
        *r.entry(3, n) = bits(&[true, true]); // last write wins
        r.seal();
        assert_eq!(r.live(), 2, "one entry per recipient once sealed");
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
    fn ascending_sends_append_and_out_of_order_sends_are_sorted_at_seal() {
        let n = 8;
        let mut r = SparseRow::default();
        for to in [1u32, 2, 5] {
            *r.entry(to, n) = uint(u64::from(to), 3);
        }
        assert!(!unsorted(&r), "ascending sends keep the row sorted");
        *r.entry(5, n) = bits(&[true]); // a repeat of the last recipient overwrites it
        assert_eq!(r.live(), 3);
        *r.entry(2, n) = bits(&[false]);
        *r.entry(7, n) = bits(&[true]);
        *r.entry(2, n) = bits(&[true]);
        assert!(unsorted(&r));
        r.seal();
        let got = entries(&r);
        assert_eq!(
            got,
            vec![
                (1, uint(1, 3)),
                (2, bits(&[true])),
                (5, bits(&[true])),
                (7, bits(&[true])),
            ]
        );
        assert!(kept(&r) < n);
    }

    #[test]
    fn a_row_never_holds_more_than_n_minus_one_entries() {
        let n = 6;
        let mut r = SparseRow::default();
        // Descending sends, each recipient many times over.
        for round in 0..10u64 {
            for to in (1..n as u32).rev() {
                *r.entry(to, n) = uint(round, 4);
                assert!(kept(&r) < n, "row grew to {} entries", kept(&r));
            }
        }
        r.seal();
        for to in 1..n {
            assert_eq!(r.get(to), &uint(9, 4), "last write to {to}");
        }
        let capacity = r.entries.as_ref().map_or(0, |es| es.msgs.capacity());
        assert!(capacity < n, "capacity {capacity}");
    }

    #[test]
    fn sparse_row_broadcast_then_override() {
        let n = 5;
        let mut r = SparseRow::default();
        *r.entry(4, n) = bits(&[true, true, true]);
        r.set_broadcast(&bits(&[true, false])); // discards the earlier send
        *r.entry(2, n) = bits(&[false]); // override one copy
        *r.entry(3, n) = BitString::new(); // empty override = no message to 3
        r.seal();
        assert_eq!(r.get(1), &bits(&[true, false]));
        assert_eq!(r.get(2), &bits(&[false]));
        assert!(r.get(3).is_empty());
        assert_eq!(r.get(4), &bits(&[true, false]), "broadcast override gone");
        // Row iteration merges broadcast and overrides, recipients ascending.
        let got: Vec<(usize, usize)> = r.messages(n, 0).map(|(u, m)| (u, m.len())).collect();
        assert_eq!(got, vec![(1, 2), (2, 1), (4, 2)]);
    }

    #[test]
    fn sparse_row_iter_without_broadcast_skips_empties() {
        let n = 6;
        let mut r = SparseRow::default();
        *r.entry(2, n) = bits(&[true]);
        *r.entry(0, n) = BitString::new();
        *r.entry(4, n) = bits(&[false, false]);
        r.seal();
        let got: Vec<usize> = r.messages(n, 1).map(|(u, _)| u).collect();
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
                m.to_mut().set(0, false);
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
    fn broadcast_copies_are_copied_only_when_written() {
        let n = 5;
        let mut r = SparseRow::default();
        r.set_broadcast(&bits(&[true, false]));
        r.seal();
        // Reads see the shared payload; a write that leaves the content as
        // it was materialises nothing.
        r.for_each_msg_mut(0, n, |u, m| {
            assert_eq!(**m, bits(&[true, false]), "recipient {u}");
            if u == 3 {
                m.to_mut().set(0, true);
            }
        });
        assert_eq!(kept(&r), 0, "no entry was allocated");
        // A write that changes the content materialises that copy only.
        r.for_each_msg_mut(0, n, |u, m| {
            if u == 1 {
                m.to_mut().set(1, true);
            }
        });
        assert_eq!(entries(&r), vec![(1, bits(&[true, true]))]);
        assert_eq!(r.get(2), &bits(&[true, false]));
    }

    #[test]
    fn payloads_lists_what_for_each_payload_mut_visits() {
        let n = 5;
        let mut r = SparseRow::default();
        r.set_broadcast(&bits(&[true]));
        *r.entry(2, n) = bits(&[false, true]);
        *r.entry(3, n) = BitString::new();
        r.seal();
        let listed: Vec<(usize, BitString)> = r.payloads(n).map(|(c, m)| (c, m.clone())).collect();
        let mut visited = Vec::new();
        r.for_each_payload_mut(n, |c, m| visited.push((c, m.clone())));
        assert_eq!(listed, visited);
        // The broadcast reaches 1 and 4; the empty override to 3 is no copy.
        assert_eq!(listed, vec![(2, bits(&[true])), (1, bits(&[false, true]))]);
        // Every recipient overridden: the broadcast payload reaches no one.
        for to in [1, 4] {
            *r.entry(to, n) = bits(&[true, true, true]);
        }
        r.seal();
        let listed: Vec<usize> = r.payloads(n).map(|(c, _)| c).collect();
        assert_eq!(listed, vec![1, 1, 1]);
    }

    /// `len` bits drawn from `seed`.
    fn drawn(len: usize, seed: u64) -> BitString {
        BitString::from_bits((0..len).map(|i| seed.rotate_right(i as u32) & 1 == 1))
    }

    proptest! {
        /// The payloads' copies tally the copy walk: over random sealed
        /// rows — with and without a broadcast; overrides ascending, out of
        /// order and repeated; empty overrides and overrides equal to the
        /// broadcast — the copies add up to the number of
        /// `messages(n, me)`, and the bits and the largest message match
        /// the walk's.
        #[test]
        fn prop_payload_tally_matches_the_copy_walk(
            shape in (0usize..4, any::<u64>(), any::<bool>()),
            bcast in (0usize..=130, any::<u64>()),
            sends in proptest::collection::vec(
                (any::<u64>(), 0usize..8, any::<u64>()),
                0..100,
            ),
            ascending in any::<bool>(),
        ) {
            let (size, me, broadcasts) = shape;
            let n = [2, 3, 64, 65][size];
            let me = (me % n as u64) as usize;
            let bcast = if broadcasts { drawn(bcast.0 + 1, bcast.1) } else { BitString::new() };
            // Kind 0 is an empty override, 1 a copy of the broadcast.
            let mut sends: Vec<(u32, BitString)> = sends
                .iter()
                .map(|&(to, kind, seed)| {
                    let to = (me as u64 + 1 + to % (n as u64 - 1)) % n as u64;
                    let m = match kind {
                        0 => BitString::new(),
                        1 => bcast.clone(),
                        _ => drawn(1 + (seed % 130) as usize, seed),
                    };
                    (to as u32, m)
                })
                .collect();
            if ascending {
                // Stable: repeats of a recipient keep their order.
                sends.sort_by_key(|&(to, _)| to);
            }
            let mut r = SparseRow::default();
            if broadcasts {
                r.set_broadcast(&bcast);
            }
            for (to, m) in &sends {
                r.entry(*to, n).copy_from(m);
            }
            r.seal();
            let walk: Vec<usize> = r.messages(n, me).map(|(_, m)| m.len()).collect();
            let copies: usize = r.payloads(n).map(|(c, _)| c).sum();
            let bits: usize = r.payloads(n).map(|(c, m)| c * m.len()).sum();
            let max = r.payloads(n).map(|(_, m)| m.len()).max();
            prop_assert_eq!(copies, walk.len());
            prop_assert_eq!(bits, walk.iter().sum::<usize>());
            prop_assert_eq!(max, walk.iter().copied().max());
        }
    }

    #[test]
    fn damaged_broadcast_copies_reuse_spare_entries() {
        let n = 6;
        let mut r = SparseRow::default();
        for round in 0..50 {
            r.clear();
            r.set_broadcast(&bits(&[true, false, true]));
            r.seal();
            // Drop a different pair of copies every round.
            let hit = [1 + round % 5, 1 + (round + 2) % 5];
            r.for_each_msg_mut(0, n, |u, m| {
                if hit.contains(&u) {
                    m.to_mut().clear();
                }
            });
            let heard: Vec<usize> = r.messages(n, 0).map(|(u, _)| u).collect();
            let expect: Vec<usize> = (1..n).filter(|u| !hit.contains(u)).collect();
            assert_eq!(heard, expect, "round {round}");
            assert!(kept(&r) < n, "round {round}: {}", kept(&r));
        }
    }

    #[test]
    fn the_index_walks_each_column_in_sender_order() {
        let n = 5;
        let mut buf = SparseBuf::fresh(n);
        // 0 broadcasts, overriding 2 with an empty message and 3 with 1 bit.
        buf.rows[0].set_broadcast(&bits(&[true, true]));
        *buf.rows[0].entry(3, n) = bits(&[false]);
        *buf.rows[0].entry(2, n) = BitString::new();
        // 1 unicasts to 4 and 0; 4 broadcasts.
        *buf.rows[1].entry(4, n) = bits(&[true]);
        *buf.rows[1].entry(0, n) = bits(&[true, false, true]);
        buf.rows[4].set_broadcast(&bits(&[false, false, false, false]));
        for r in &mut buf.rows {
            r.seal();
        }
        buf.index_receivers();
        let view = buf.view();
        for u in 0..n {
            let walked: Vec<(usize, BitString)> =
                view.column(u).map(|(v, m)| (v, m.clone())).collect();
            let scanned: Vec<(usize, BitString)> = (0..n)
                .map(|v| (v, view.get(v, u).clone()))
                .filter(|(_, m)| !m.is_empty())
                .collect();
            assert_eq!(walked, scanned, "column {u}");
        }
        let senders = |u: usize| view.column(u).map(|(v, _)| v).collect::<Vec<_>>();
        assert_eq!(senders(0), vec![1, 4]);
        assert_eq!(
            senders(2),
            vec![4],
            "the empty override hides 0's broadcast"
        );
        assert_eq!(senders(4), vec![0, 1], "a broadcaster does not hear itself");
        // A broadcast is indexed once per sender, not once per copy.
        assert_eq!(buf.index.pairs.len(), 4);
        assert_eq!(buf.index.bcast, vec![0, 4]);
    }

    #[test]
    fn arena_reuses_and_reports_footprint() {
        let mut arena = DeliveryArena::new();
        assert_eq!(arena.slot_footprint(), 0);
        let bufs = arena.take(4);
        arena.put(bufs);
        // 2 buffers × 4 rows × (1 broadcast slot + 0 entries).
        assert_eq!(arena.slot_footprint(), 8);
        // Same n: the pair is reused, cleared.
        let mut bufs = arena.take(4);
        assert_eq!(arena.slot_footprint(), 0, "checked out");
        assert!(bufs[0]
            .rows
            .iter()
            .all(|r| r.bcast.is_empty() && r.live() == 0));
        *bufs[0].rows[1].entry(2, 4) = bits(&[true]);
        arena.put(bufs);
        assert_eq!(arena.slot_footprint(), 9, "entries stay parked");
        let bufs = arena.take(4);
        assert_eq!(bufs[0].rows[1].live(), 0);
        assert!(bufs[0].view().column(2).next().is_none(), "index reset");
        arena.put(bufs);
        // Different n: a fresh pair replaces the stale one.
        let bufs = arena.take(2);
        assert_eq!(bufs[0].rows.len(), 2);
        arena.put(bufs);
        assert_eq!(arena.slot_footprint(), 4);
    }
}
