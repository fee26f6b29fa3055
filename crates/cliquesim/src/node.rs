//! The node-side programming interface.
//!
//! A congested clique algorithm is given as a [`NodeProgram`]: a state
//! machine that the engine steps once per synchronous round. Within a round
//! the node reads its [`Inbox`] (one message slot per other node), performs
//! unlimited local computation, and fills its [`Outbox`] (at most one
//! bandwidth-bounded message per other node).

use crate::bits::{BitString, EMPTY};
use crate::delivery::{Nodes, SparseRow};

/// Identity of a node. The paper numbers nodes `1..=n`; internally we use
/// `0..n` and expose [`NodeId::display`] for one-based reporting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-based id as in the paper.
    pub fn display(self) -> u32 {
        self.0 + 1
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(v) => NodeId(v),
            Err(_) => panic!("node index {i} does not fit in u32"),
        }
    }
}

/// Static per-node context, fixed for the whole execution.
#[derive(Clone, Debug)]
pub struct NodeCtx {
    /// This node's identity.
    pub id: NodeId,
    /// Total number of nodes in the clique.
    pub n: usize,
    /// Message size bound in bits (per ordered pair per round).
    pub bandwidth: usize,
}

impl NodeCtx {
    /// Bits needed to name a node, `ceil(log2 n)` (at least 1).
    pub fn id_width(&self) -> usize {
        BitString::width_for(self.n)
    }
}

/// What a node decided to do after a round.
#[derive(Debug)]
pub enum Status<T> {
    /// Keep participating in subsequent rounds.
    Continue,
    /// Stop; the node's local output is `T`. Messages placed in the outbox
    /// during the halting round are still delivered, but a halted node never
    /// sends again.
    Halt(T),
}

/// A congested clique node program.
///
/// All nodes run the *same* program (the paper's uniformity assumption); the
/// program may branch on `ctx.id`. Programs must be deterministic —
/// randomised algorithms model their coins as part of the program state,
/// seeded deterministically from the id, which keeps every run replayable.
pub trait NodeProgram: Send {
    /// The node's local output when it halts.
    type Output: Send;

    /// Called once before round 0.
    fn init(&mut self, _ctx: &NodeCtx) {}

    /// Execute one synchronous round.
    ///
    /// `round` counts from 0. `inbox` holds the messages sent to this node
    /// in the previous round (empty on round 0). Messages for the *next*
    /// round are placed in `outbox`.
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output>;
}

impl<T: NodeProgram + ?Sized> NodeProgram for Box<T> {
    type Output = T::Output;

    fn init(&mut self, ctx: &NodeCtx) {
        (**self).init(ctx);
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        (**self).step(ctx, round, inbox, outbox)
    }
}

/// Messages received by one node in one round.
///
/// Logically, slot `u` holds the message from node `u`; an empty
/// [`BitString`] means node `u` sent nothing. Physically the inbox is a view
/// into whichever delivery backend the engine is running: a
/// *bitmap-indexed view* of one column of the dense sender-major matrix
/// (the message from `u` lives at `matrix[u * n + me]`, and row `me` of the
/// receiver bitmap marks the senders that wrote one), or a lookup into the
/// sparse backend's compacted per-sender rows. Either way delivery is a
/// buffer swap, never an O(n²) transpose, and on the dense backend
/// [`Inbox::iter`] visits only the marked senders. Standalone harnesses
/// use one flat slot per sender via [`Inbox::from_slots`].
pub struct Inbox<'a> {
    inner: InboxInner<'a>,
    n: usize,
    me: usize,
}

/// Backend-specific storage behind an [`Inbox`].
enum InboxInner<'a> {
    /// Strided view into a flat slice of message slots: column `offset` of
    /// the dense backend's sender-major matrix with row `offset` of its
    /// receiver bitmap, or a harness's flat slots (`stride = 1`,
    /// `offset = 0`, no bitmap).
    Slots {
        slots: &'a [BitString],
        stride: usize,
        offset: usize,
        recv: Option<&'a [u64]>,
    },
    /// Sealed per-sender rows of the sparse backend.
    Sparse { rows: &'a [SparseRow] },
}

impl<'a> Inbox<'a> {
    /// Build an inbox from raw slots (slot `u` = message from node `u`).
    ///
    /// Intended for harnesses that execute node programs *outside* the
    /// engine: the virtual-clique simulation of Theorem 10 and the
    /// transcript replay of Theorem 3's normal form.
    pub fn from_slots(slots: &'a [BitString], me: usize) -> Self {
        Self {
            inner: InboxInner::Slots {
                slots,
                stride: 1,
                offset: 0,
                recv: None,
            },
            n: slots.len(),
            me,
        }
    }

    /// Build a view of column `me` of a dense sender-major `n × n` message
    /// matrix (the message from `u` to `me` is `matrix[u * n + me]`), given
    /// row `me` of its receiver bitmap: bit `u` must be set for every
    /// non-empty `matrix[u * n + me]`.
    pub(crate) fn dense(matrix: &'a [BitString], recv: &'a [u64], n: usize, me: usize) -> Self {
        debug_assert_eq!(matrix.len(), n * n);
        Self {
            inner: InboxInner::Slots {
                slots: matrix,
                stride: n,
                offset: me,
                recv: Some(recv),
            },
            n,
            me,
        }
    }

    /// Build a view into the sparse backend's sealed per-sender rows.
    pub(crate) fn sparse(rows: &'a [SparseRow], n: usize, me: usize) -> Self {
        debug_assert_eq!(rows.len(), n);
        Self {
            inner: InboxInner::Sparse { rows },
            n,
            me,
        }
    }

    /// The message from node `from` (empty if none). A node never receives
    /// from itself; that slot is always empty.
    pub fn from(&self, from: NodeId) -> &'a BitString {
        match &self.inner {
            InboxInner::Slots {
                slots,
                stride,
                offset,
                ..
            } => {
                let slots: &'a [BitString] = slots;
                &slots[from.index() * stride + offset]
            }
            InboxInner::Sparse { rows } => {
                let rows: &'a [SparseRow] = rows;
                if from.index() == self.me {
                    &EMPTY
                } else {
                    rows[from.index()].get(self.me)
                }
            }
        }
    }

    /// Iterate over `(sender, message)` for all non-empty messages,
    /// senders ascending. On the dense backend this visits only the
    /// senders marked in the receiver bitmap; otherwise every node.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a BitString)> + '_ {
        let senders = match self.inner {
            InboxInner::Slots {
                recv: Some(recv), ..
            } => Nodes::marked(recv),
            _ => Nodes::all_but(self.n, self.me),
        };
        senders
            .map(move |u| {
                let id = NodeId::from(u);
                (id, self.from(id))
            })
            .filter(|(_, m)| !m.is_empty())
    }

    /// Number of nodes in the clique.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Messages sent by one node in one round: at most one per other node, each
/// at most `bandwidth` bits (the engine enforces the bound on delivery).
///
/// Borrows its slot row (or compacted sparse row) from the engine's send
/// buffer so that node steps can run in parallel without per-round
/// allocation. On the dense backend it also marks each recipient it writes
/// in the row's sender bitmap, which is what lets the engine clear, check
/// and deliver the row by visiting only those slots.
pub struct Outbox<'a> {
    inner: OutboxInner<'a>,
    n: usize,
    me: usize,
}

/// Backend-specific storage behind an [`Outbox`].
enum OutboxInner<'a> {
    /// One flat slot per recipient, with the row's sender-bitmap words
    /// (empty for harness outboxes, which keep no bitmap).
    Slots {
        slots: &'a mut [BitString],
        sent: &'a mut [u64],
    },
    /// The sender's compacted row in the sparse backend.
    Sparse { row: &'a mut SparseRow },
}

impl<'a> Outbox<'a> {
    /// Build an outbox over raw slots (slot `u` = message to node `u`).
    ///
    /// Public for the same out-of-engine harnesses as
    /// [`Inbox::from_slots`]; inside the engine the slots are rows of its
    /// send buffer.
    pub fn new(slots: &'a mut [BitString], me: usize) -> Self {
        let n = slots.len();
        Self {
            inner: OutboxInner::Slots {
                slots,
                sent: &mut [],
            },
            n,
            me,
        }
    }

    /// Build an outbox over a cleared dense-backend row and its
    /// `⌈n/64⌉` sender-bitmap words.
    pub(crate) fn dense(slots: &'a mut [BitString], sent: &'a mut [u64], me: usize) -> Self {
        let n = slots.len();
        debug_assert_eq!(sent.len(), n.div_ceil(64));
        Self {
            inner: OutboxInner::Slots { slots, sent },
            n,
            me,
        }
    }

    /// Build an outbox over a cleared sparse-backend row.
    pub(crate) fn sparse(row: &'a mut SparseRow, n: usize, me: usize) -> Self {
        Self {
            inner: OutboxInner::Sparse { row },
            n,
            me,
        }
    }

    /// Queue `msg` for delivery to `to` next round. Replaces any message
    /// already queued for `to` this round. Sending to oneself or to a node
    /// outside the clique is a programming error.
    pub fn send(&mut self, to: NodeId, msg: BitString) {
        self.send_with(to, |slot| *slot = msg);
    }

    /// Queue for `to` the message `write` builds in place, and return what
    /// `write` returns. `write` gets the slot emptied but with its
    /// allocation kept, so a program that refills the same slots every
    /// round — a router shipping stream chunks with
    /// [`crate::BitReader::read_into`] — allocates nothing in steady
    /// state. Replaces any message already queued for `to` this round; a
    /// slot `write` leaves empty sends nothing. The same rules as
    /// [`Outbox::send`] apply.
    pub fn send_with<R>(&mut self, to: NodeId, write: impl FnOnce(&mut BitString) -> R) -> R {
        assert_ne!(
            to.index(),
            self.me,
            "node {} attempted to send to itself",
            self.me
        );
        assert!(
            to.index() < self.n,
            "node {} attempted to send to nonexistent node {}",
            self.me,
            to.index()
        );
        let slot = match &mut self.inner {
            OutboxInner::Slots { slots, sent } => {
                mark(sent, to.index());
                &mut slots[to.index()]
            }
            OutboxInner::Sparse { row } => row.entry(to.0),
        };
        slot.clear();
        write(slot)
    }

    /// Send the same message to every other node (the broadcast primitive;
    /// costs the same as n-1 unicasts in this model).
    pub fn broadcast(&mut self, msg: &BitString) {
        match &mut self.inner {
            OutboxInner::Slots { slots, sent } => {
                for (u, slot) in slots.iter_mut().enumerate() {
                    if u != self.me {
                        slot.copy_from(msg);
                    }
                }
                for (i, w) in sent.iter_mut().enumerate() {
                    let bits = (self.n - 64 * i).min(64);
                    *w = if bits == 64 { !0 } else { (1 << bits) - 1 };
                }
                if let Some(w) = sent.get_mut(self.me / 64) {
                    *w &= !(1 << (self.me % 64));
                }
            }
            OutboxInner::Sparse { row } => row.set_broadcast(msg),
        }
    }

    /// The number of destination slots (= n).
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Set bit `u` of a sender-bitmap row; a no-op for a harness outbox,
/// whose row is empty.
fn mark(sent: &mut [u64], u: usize) {
    if let Some(w) = sent.get_mut(u / 64) {
        *w |= 1 << (u % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_is_one_based() {
        assert_eq!(NodeId(0).display(), 1);
        assert_eq!(NodeId(6).display(), 7);
        assert_eq!(NodeId::from(3usize).index(), 3);
    }

    #[test]
    fn outbox_send_and_broadcast() {
        let mut slots = vec![BitString::new(); 4];
        let m = BitString::from_bits([true]);
        {
            let mut ob = Outbox::new(&mut slots, 1);
            ob.send(NodeId(0), m.clone());
        }
        assert_eq!(slots[0], m);
        assert!(slots[2].is_empty());
        {
            let mut ob = Outbox::new(&mut slots, 1);
            ob.broadcast(&m);
        }
        for u in [0usize, 2, 3] {
            assert_eq!(slots[u], m);
        }
        assert!(slots[1].is_empty(), "broadcast must skip self");
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn outbox_rejects_out_of_range_send() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 0);
        ob.send(NodeId(7), BitString::new());
    }

    #[test]
    fn sparse_outbox_and_inbox_round_trip() {
        let n = 4;
        let mut rows: Vec<SparseRow> = (0..n).map(|_| SparseRow::default()).collect();
        {
            let mut ob = Outbox::sparse(&mut rows[1], n, 1);
            assert_eq!(ob.n(), n);
            ob.broadcast(&BitString::from_bits([true, false]));
            ob.send(NodeId(3), BitString::from_bits([false]));
        }
        for r in &mut rows {
            r.seal();
        }
        let ib = Inbox::sparse(&rows, n, 3);
        assert_eq!(ib.from(NodeId(1)), &BitString::from_bits([false]));
        assert!(ib.from(NodeId(3)).is_empty(), "self slot is empty");
        let ib0 = Inbox::sparse(&rows, n, 0);
        assert_eq!(ib0.from(NodeId(1)), &BitString::from_bits([true, false]));
        let got: Vec<_> = ib0.iter().map(|(u, m)| (u.index(), m.len())).collect();
        assert_eq!(got, vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "send to itself")]
    fn outbox_rejects_self_send() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 2);
        ob.send(NodeId(2), BitString::new());
    }

    #[test]
    fn inbox_iter_skips_empty() {
        let slots = vec![
            BitString::from_bits([true]),
            BitString::new(),
            BitString::from_bits([false, true]),
        ];
        let ib = Inbox::from_slots(&slots, 1);
        let got: Vec<_> = ib.iter().map(|(u, m)| (u.index(), m.len())).collect();
        assert_eq!(got, vec![(0, 1), (2, 2)]);
        assert_eq!(ib.from(NodeId(0)).len(), 1);
        assert!(ib.from(NodeId(1)).is_empty());
    }

    #[test]
    fn dense_inbox_walks_the_receiver_bits() {
        // 3×3 sender-major matrix: slot v*n+u = message v → u.
        let n = 3;
        let mut matrix = vec![BitString::new(); n * n];
        matrix[n + 2] = BitString::from_bits([true]); // 1 → 2
        matrix[2] = BitString::from_bits([false, true]); // 0 → 2
        matrix[n] = BitString::from_bits([true, true, true]); // 1 → 0
                                                              // Receiver rows: node 2 hears from 0 and 1; node 0 from 1 and,
                                                              // stale, from 2 (a set bit over an empty slot is skipped).
        let recv2 = [0b011u64];
        let ib = Inbox::dense(&matrix, &recv2, n, 2);
        assert_eq!(ib.from(NodeId(1)).len(), 1);
        assert_eq!(ib.from(NodeId(0)).len(), 2);
        let got: Vec<_> = ib.iter().map(|(u, m)| (u.index(), m.len())).collect();
        assert_eq!(got, vec![(0, 2), (1, 1)]);
        // Node 2 does not see the 1 → 0 message.
        let recv0 = [0b110u64];
        let ib0 = Inbox::dense(&matrix, &recv0, n, 0);
        assert_eq!(ib0.from(NodeId(1)).len(), 3);
        let got: Vec<_> = ib0.iter().map(|(u, _)| u.index()).collect();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn dense_outbox_marks_what_it_writes() {
        let n = 70;
        let mut slots = vec![BitString::new(); n];
        let mut sent = vec![0u64; 2];
        {
            let mut ob = Outbox::dense(&mut slots, &mut sent, 5);
            ob.send(NodeId(1), BitString::from_bits([true]));
            let r = ob.send_with(NodeId(66), |slot| {
                slot.push_uint(0b101, 3);
                slot.len()
            });
            assert_eq!(r, 3);
            // An empty overwrite leaves the bit: a cover, not an exact set.
            ob.send_with(NodeId(2), |_| ());
        }
        assert_eq!(sent, vec![0b110, 1 << 2]);
        assert_eq!(slots[66], BitString::from_bits([true, false, true]));
        assert!(slots[2].is_empty());
        {
            let mut ob = Outbox::dense(&mut slots, &mut sent, 65);
            ob.broadcast(&BitString::from_bits([false]));
        }
        assert_eq!(sent, vec![!0, 0b11_1101], "all of 0..70 but the sender");
        assert!(slots[65].is_empty() && slots[69].len() == 1);
    }

    #[test]
    fn send_with_replaces_in_place() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 0);
        ob.send(NodeId(1), BitString::from_bits([true, true, true]));
        ob.send_with(NodeId(1), |slot| {
            assert!(slot.is_empty(), "the closure gets the slot emptied");
            slot.push(false);
        });
        assert_eq!(slots[1], BitString::from_bits([false]));
        // The sparse row too: a second write to a recipient replaces the
        // first, and an unwritten recipient still hears the broadcast.
        let n = 4;
        let mut rows: Vec<SparseRow> = (0..n).map(|_| SparseRow::default()).collect();
        {
            let mut ob = Outbox::sparse(&mut rows[0], n, 0);
            ob.broadcast(&BitString::from_bits([true]));
            ob.send_with(NodeId(2), |slot| slot.push_uint(3, 2));
            ob.send_with(NodeId(2), |slot| slot.push_uint(1, 2));
        }
        rows[0].seal();
        let ib = Inbox::sparse(&rows, n, 2);
        assert_eq!(ib.from(NodeId(0)), &BitString::from_bits([true, false]));
        let ib3 = Inbox::sparse(&rows, n, 3);
        assert_eq!(ib3.from(NodeId(0)), &BitString::from_bits([true]));
    }
}
