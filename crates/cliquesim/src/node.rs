//! The node-side programming interface.
//!
//! A congested clique algorithm is given as a [`NodeProgram`]: a state
//! machine that the engine steps once per synchronous round. Within a round
//! the node reads its [`Inbox`] (one message slot per other node), performs
//! unlimited local computation, and fills its [`Outbox`] (at most one
//! bandwidth-bounded message per other node).

use std::iter::Enumerate;
use std::slice;

use crate::bits::BitString;
use crate::delivery::{BufView, Column, SparseRow};

/// Identity of a node. The paper numbers nodes `1..=n`; internally we use
/// `0..n` and expose [`NodeId::display`] for one-based reporting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-based id as in the paper.
    pub fn display(self) -> u32 {
        self.0 + 1
    }
}

impl From<usize> for NodeId {
    #[inline]
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
    #[inline]
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
/// into the engine's previous-round buffer: [`Inbox::from`] looks the
/// message up in sender `u`'s row, and [`Inbox::iter`] walks the buffer's
/// receiver index, which lists exactly the entries addressed to this node
/// plus the senders that broadcast. Delivery is a buffer swap, never an
/// O(n²) transpose. Standalone harnesses use one flat slot per sender via
/// [`Inbox::from_slots`].
pub struct Inbox<'a> {
    inner: InboxInner<'a>,
    me: usize,
}

/// The storage behind an [`Inbox`].
enum InboxInner<'a> {
    /// A harness's flat slots: slot `u` is the message from `u`.
    Slots(&'a [BitString]),
    /// The engine's previous-round buffer.
    Buf(BufView<'a>),
}

impl<'a> Inbox<'a> {
    /// Build an inbox from raw slots (slot `u` = message from node `u`).
    ///
    /// Intended for harnesses that execute node programs *outside* the
    /// engine: the virtual-clique simulation of Theorem 10 and the
    /// transcript replay of Theorem 3's normal form.
    pub fn from_slots(slots: &'a [BitString], me: usize) -> Self {
        Self {
            inner: InboxInner::Slots(slots),
            me,
        }
    }

    /// Node `me`'s view of the engine's previous-round buffer.
    pub(crate) fn new(buf: BufView<'a>, me: usize) -> Self {
        Self {
            inner: InboxInner::Buf(buf),
            me,
        }
    }

    /// The message from node `from` (empty if none). A node never receives
    /// from itself; that slot is always empty.
    #[inline]
    pub fn from(&self, from: NodeId) -> &'a BitString {
        match self.inner {
            InboxInner::Slots(slots) => &slots[from.index()],
            InboxInner::Buf(buf) => buf.get(from.index(), self.me),
        }
    }

    /// Iterate over `(sender, message)` for all non-empty messages,
    /// senders ascending. Inside the engine the walk visits only the
    /// entries addressed to this node and the senders that broadcast.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a BitString)> + '_ {
        let senders = match self.inner {
            InboxInner::Slots(slots) => Senders::Slots(slots.iter().enumerate(), self.me),
            InboxInner::Buf(buf) => Senders::Column(buf.column(self.me)),
        };
        senders.map(|(u, m)| (NodeId::from(u), m))
    }

    /// Number of nodes in the clique.
    #[inline]
    pub fn n(&self) -> usize {
        match self.inner {
            InboxInner::Slots(slots) => slots.len(),
            InboxInner::Buf(buf) => buf.n(),
        }
    }
}

/// The non-empty messages of an [`Inbox`] as `(sender, payload)`, senders
/// ascending.
enum Senders<'a> {
    /// Every harness slot but the receiver's own.
    Slots(Enumerate<slice::Iter<'a, BitString>>, usize),
    /// A walk of the buffer's receiver index.
    Column(Column<'a>),
}

impl<'a> Iterator for Senders<'a> {
    type Item = (usize, &'a BitString);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'a BitString)> {
        match self {
            Senders::Slots(slots, me) => slots.find(|(u, m)| u != me && !m.is_empty()),
            Senders::Column(column) => column.next(),
        }
    }
}

/// Messages sent by one node in one round: at most one per other node, each
/// at most `bandwidth` bits (the engine enforces the bound on delivery).
///
/// Borrows its sender row from the engine's send buffer so that node steps
/// can run in parallel without per-round allocation. Sends in ascending
/// recipient order append in O(1); any order is correct, and the last write
/// to a recipient wins.
pub struct Outbox<'a> {
    inner: OutboxInner<'a>,
    n: usize,
    me: usize,
}

/// The storage behind an [`Outbox`].
enum OutboxInner<'a> {
    /// A harness's flat slots: slot `u` is the message to `u`.
    Slots(&'a mut [BitString]),
    /// The sender's row in the engine's send buffer.
    Row(&'a mut SparseRow),
}

impl<'a> Outbox<'a> {
    /// Build an outbox over raw slots (slot `u` = message to node `u`).
    ///
    /// Public for the same out-of-engine harnesses as
    /// [`Inbox::from_slots`]; inside the engine the outbox writes a row of
    /// its send buffer.
    pub fn new(slots: &'a mut [BitString], me: usize) -> Self {
        let n = slots.len();
        Self {
            inner: OutboxInner::Slots(slots),
            n,
            me,
        }
    }

    /// Build an outbox over a cleared row of the engine's send buffer.
    pub(crate) fn row(row: &'a mut SparseRow, n: usize, me: usize) -> Self {
        Self {
            inner: OutboxInner::Row(row),
            n,
            me,
        }
    }

    /// Queue `msg` for delivery to `to` next round. Replaces any message
    /// already queued for `to` this round. Sending to oneself or to a node
    /// outside the clique is a programming error.
    #[inline]
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
    #[inline]
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
            OutboxInner::Slots(slots) => &mut slots[to.index()],
            OutboxInner::Row(row) => row.entry(to.0, self.n),
        };
        slot.clear();
        write(slot)
    }

    /// Send the same message to every other node (the broadcast primitive;
    /// costs the same as n-1 unicasts in this model).
    #[inline]
    pub fn broadcast(&mut self, msg: &BitString) {
        match &mut self.inner {
            OutboxInner::Slots(slots) => {
                for (u, slot) in slots.iter_mut().enumerate() {
                    if u != self.me {
                        slot.copy_from(msg);
                    }
                }
            }
            OutboxInner::Row(row) => row.set_broadcast(msg),
        }
    }

    /// The number of destination slots (= n).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::SparseBuf;

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

    /// A buffer of `n` empty rows, and a way to seal and index it.
    fn empty_buf(n: usize) -> SparseBuf {
        SparseBuf::from_matrix(&vec![BitString::new(); n * n], n)
    }

    fn seal(buf: &mut SparseBuf) {
        for r in buf.rows_mut() {
            r.seal();
        }
        buf.index_receivers();
    }

    #[test]
    fn row_outbox_and_inbox_round_trip() {
        let n = 4;
        let mut buf = empty_buf(n);
        {
            let mut ob = Outbox::row(&mut buf.rows_mut()[1], n, 1);
            assert_eq!(ob.n(), n);
            ob.broadcast(&BitString::from_bits([true, false]));
            ob.send(NodeId(3), BitString::from_bits([false]));
        }
        seal(&mut buf);
        let ib = Inbox::new(buf.view(), 3);
        assert_eq!(ib.from(NodeId(1)), &BitString::from_bits([false]));
        assert!(ib.from(NodeId(3)).is_empty(), "self slot is empty");
        let ib0 = Inbox::new(buf.view(), 0);
        assert_eq!(ib0.n(), n);
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
    fn send_with_replaces_in_place() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 0);
        ob.send(NodeId(1), BitString::from_bits([true, true, true]));
        ob.send_with(NodeId(1), |slot| {
            assert!(slot.is_empty(), "the closure gets the slot emptied");
            slot.push(false);
        });
        assert_eq!(slots[1], BitString::from_bits([false]));
        // A buffer row too: a second write to a recipient replaces the
        // first, in or out of order, and an unwritten recipient still
        // hears the broadcast.
        let n = 4;
        let mut buf = empty_buf(n);
        {
            let mut ob = Outbox::row(&mut buf.rows_mut()[0], n, 0);
            ob.broadcast(&BitString::from_bits([true]));
            ob.send_with(NodeId(2), |slot| slot.push_uint(3, 2));
            ob.send_with(NodeId(2), |slot| slot.push_uint(1, 2));
            ob.send_with(NodeId(1), |slot| slot.push_uint(0, 2));
            ob.send_with(NodeId(1), |slot| slot.push_uint(2, 2));
        }
        seal(&mut buf);
        let ib = Inbox::new(buf.view(), 2);
        assert_eq!(ib.from(NodeId(0)), &BitString::from_bits([true, false]));
        let ib1 = Inbox::new(buf.view(), 1);
        assert_eq!(ib1.from(NodeId(0)), &BitString::from_bits([false, true]));
        assert_eq!(ib1.iter().count(), 1, "one entry per link");
        let ib3 = Inbox::new(buf.view(), 3);
        assert_eq!(ib3.from(NodeId(0)), &BitString::from_bits([true]));
    }
}
