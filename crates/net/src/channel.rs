//! The shared wireless medium: unit-disk propagation with collisions.
//!
//! The channel answers three questions the MAC layer needs:
//!
//! 1. **Who hears a transmission?** Every node within communication range
//!    of the sender (the unit-disk model at the paper's 125 m range).
//! 2. **Is the medium busy at a node?** — carrier sense: true while any
//!    in-flight transmission is audible there.
//! 3. **Did a frame survive?** A copy at receiver `r` is *corrupted* if
//!    any other transmission overlapped it at `r` (no capture effect), if
//!    `r` was itself transmitting (half-duplex), or if the configurable
//!    random loss injection fires (used for the paper's §4.3 transient
//!    packet-loss experiments).
//!
//! The channel is payload-agnostic: it tracks in-flight transmissions by
//! opaque [`TxId`]; the simulator keeps the frame body alongside the
//! transmission-end event it schedules.
//!
//! # Hot-path layout
//!
//! `begin_tx`/`end_tx_into` run once per frame (plus retries) and dominate
//! dense-traffic simulations, so the channel is built to not allocate in
//! steady state:
//!
//! * Adjacency is stored **CSR-style** — one flat `Vec<NodeId>` plus an
//!   offsets array per range — and each transmission refers to its
//!   hearers/sensers by the *sender's index range* into those arrays
//!   instead of cloning the neighbour lists per transmission.
//! * In-flight transmissions live in a **slab** keyed by a dense slot id
//!   ([`TxId`] packs slot + generation); there is no hashing anywhere.
//! * A **per-node copy index** lists, for every node, the in-flight
//!   copies it could decode, as `(slab slot, hearer position)` entries.
//!   Node `h` owns its own range of the communication CSR in one flat
//!   array: adjacency is symmetric and a sender has at most one frame in
//!   flight, so `h` never holds more copies than it has neighbours, and
//!   the index never allocates after construction. `begin_tx` registers
//!   the new copies after its overlap checks, so a transmission never
//!   corrupts itself; `end_tx_into` swap-removes them. Corrupting "every
//!   copy decodable at `h`" therefore reads only `h`'s entries instead of
//!   scanning every transmission in the network, and a `begin_tx` costs
//!   O(interference range × copies per node) whatever the network size.
//! * Per-hearer corruption flags and the returned receiver lists draw
//!   from internal **buffer pools**; the simulator hands vectors back via
//!   [`Channel::recycle_nodes`] after consuming a [`TxStart`], and ends
//!   every transmission into one reused [`TxEndBuf`].
//!
//! # Examples
//!
//! ```
//! use essat_net::channel::{Channel, TxEndBuf};
//! use essat_net::ids::NodeId;
//! use essat_net::topology::Topology;
//! use essat_sim::rng::SimRng;
//! use essat_sim::time::{SimDuration, SimTime};
//!
//! let topo = Topology::line(3, 10.0, 12.0); // 0 - 1 - 2
//! let mut ch = Channel::new(&topo, SimRng::seed_from_u64(1));
//! let t0 = SimTime::ZERO;
//! let tx = ch.begin_tx(t0, NodeId::new(0), SimDuration::from_micros(416));
//! assert!(ch.carrier_busy(NodeId::new(1)));
//! assert!(!ch.carrier_busy(NodeId::new(2)), "node 2 is out of range of 0");
//! let mut end = TxEndBuf::default();
//! ch.end_tx_into(t0 + SimDuration::from_micros(416), tx.id, &mut end);
//! assert_eq!(end.clean(), [NodeId::new(1)]);
//! ```

use std::sync::Arc;

use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

use crate::ids::NodeId;
use crate::topology::Topology;

/// A pluggable per-link loss process consulted once per otherwise-clean
/// frame copy at [`Channel::end_tx_into`] time.
///
/// Implementations own whatever per-link state they need (e.g. the
/// scenario engine's Gilbert–Elliott chains) and must be deterministic
/// for a given construction seed: the channel calls `dropped` in a
/// deterministic order, so a deterministic model keeps runs
/// bit-reproducible. The model **composes** with the static
/// [`Channel::set_drop_probability`]: a copy is lost if the model drops
/// it *or* the baseline random loss fires (the baseline draw is skipped
/// when the model already dropped the copy). With both disabled the
/// per-copy cost is a single branch.
pub trait LossModel: std::fmt::Debug + Send {
    /// True if the copy of the frame ending at `now`, sent by `sender`,
    /// is lost at `receiver`.
    fn dropped(&mut self, now: SimTime, sender: NodeId, receiver: NodeId) -> bool;
}

/// Identifier of an in-flight transmission.
///
/// Packs the slab slot (low 32 bits) and a generation counter (high 32
/// bits) so stale ids are detected exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

impl TxId {
    /// Raw packed value (generation << 32 | slot).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn new(slot: u32, seq: u32) -> Self {
        TxId((seq as u64) << 32 | slot as u64)
    }

    /// The dense slab-slot index of this transmission while in flight.
    /// Unique among concurrent transmissions; reused (with a bumped
    /// generation) after the transmission ends. Callers can use it to
    /// key small side tables of per-transmission state.
    pub fn slot_index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn slot(self) -> usize {
        self.slot_index()
    }

    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot for an in-flight transmission. Hearers/sensers are the
/// sender's CSR ranges in the channel's adjacency arrays; only the
/// per-hearer corruption flags are per-transmission state.
#[derive(Debug)]
struct ActiveTx {
    seq: u32,
    live: bool,
    sender: NodeId,
    start: SimTime,
    /// Parallel to the sender's communication-range CSR slice; recycled
    /// through `bool_pool`.
    corrupted: Vec<bool>,
}

/// Outcome of starting a transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TxStart {
    /// Handle to pass to [`Channel::end_tx_into`].
    pub id: TxId,
    /// Nodes at which the medium just became busy (carrier 0 → 1);
    /// their MACs must be notified.
    pub now_busy: Vec<NodeId>,
}

/// Reusable outcome buffer for [`Channel::end_tx_into`]: the delivery
/// outcomes and carrier transitions of one finished transmission.
///
/// The three receiver classes live in **one contiguous list** partitioned
/// as `[clean | corrupted | now-idle]`; each class is exposed as a slice.
/// One buffer per world keeps the fan-out loops on a single warm
/// allocation.
#[derive(Debug)]
pub struct TxEndBuf {
    /// The transmitting node.
    pub sender: NodeId,
    /// When the transmission started.
    pub started: SimTime,
    nodes: Vec<NodeId>,
    clean_end: usize,
    corrupted_end: usize,
}

impl Default for TxEndBuf {
    fn default() -> Self {
        TxEndBuf {
            sender: NodeId::new(0),
            started: SimTime::ZERO,
            nodes: Vec::new(),
            clean_end: 0,
            corrupted_end: 0,
        }
    }
}

impl TxEndBuf {
    /// Hearers whose copy survived collisions and loss injection, in
    /// ascending id (CSR) order. The caller must still verify each
    /// receiver's radio was active for the whole airtime before
    /// delivering to its MAC.
    #[inline]
    pub fn clean(&self) -> &[NodeId] {
        &self.nodes[..self.clean_end]
    }

    /// Hearers whose copy was corrupted, in ascending id order.
    #[inline]
    pub fn corrupted(&self) -> &[NodeId] {
        &self.nodes[self.clean_end..self.corrupted_end]
    }

    /// Nodes at which the medium just became idle (carrier 1 → 0), in
    /// interference-CSR order.
    #[inline]
    pub fn now_idle(&self) -> &[NodeId] {
        &self.nodes[self.corrupted_end..]
    }

    /// Number of corrupted hearers (probe reporting).
    #[inline]
    pub fn corrupted_len(&self) -> u32 {
        (self.corrupted_end - self.clean_end) as u32
    }

    fn reset(&mut self, sender: NodeId, started: SimTime) {
        self.sender = sender;
        self.started = started;
        self.nodes.clear();
        self.clean_end = 0;
        self.corrupted_end = 0;
    }
}

/// Counters the channel keeps for the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions started.
    pub transmissions: u64,
    /// (transmission, receiver) pairs corrupted by overlap or half-duplex.
    pub collisions: u64,
    /// (transmission, receiver) pairs dropped by loss injection.
    pub injected_drops: u64,
}

/// One entry of the per-node copy index: the copy of in-flight
/// transmission `slot` at hearer position `pos` of its sender's
/// communication-range CSR slice.
#[derive(Debug, Clone, Copy, Default)]
struct CopyEntry {
    slot: u32,
    pos: u32,
}

/// CSR adjacency: `flat[off[i]..off[i+1]]` are node `i`'s neighbours in
/// ascending id order.
#[derive(Debug)]
struct Csr {
    flat: Vec<NodeId>,
    off: Vec<u32>,
}

impl Csr {
    fn from_lists<'a>(n: usize, mut list: impl FnMut(usize) -> &'a [NodeId]) -> Csr {
        let mut off = Vec::with_capacity(n + 1);
        let mut flat = Vec::new();
        off.push(0u32);
        for i in 0..n {
            flat.extend_from_slice(list(i));
            off.push(flat.len() as u32);
        }
        Csr { flat, off }
    }
}

/// The immutable adjacency block a channel consults on every
/// transmission: communication- and interference-range CSR indexes over
/// a fixed topology.
///
/// Building it walks the whole topology, so sweep harnesses share one
/// instance (`Arc`) across every run at the same `(topology, seed)`
/// point instead of rebuilding it per job — see
/// [`Channel::with_adjacency`].
#[derive(Debug)]
pub struct ChannelAdjacency {
    neighbors: Csr,
    interference: Csr,
    nodes: usize,
}

impl ChannelAdjacency {
    /// Builds the CSR indexes for `topology`.
    pub fn build(topology: &Topology) -> ChannelAdjacency {
        let n = topology.node_count();
        ChannelAdjacency {
            neighbors: Csr::from_lists(n, |i| topology.neighbors(NodeId::new(i as u32))),
            interference: Csr::from_lists(n, |i| {
                topology.interference_neighbors(NodeId::new(i as u32))
            }),
            nodes: n,
        }
    }
}

/// Recycled channel buffers (receiver lists, corruption flags) carried
/// across runs by a world pool so a fresh channel starts warm.
#[derive(Debug, Default)]
pub struct ChannelPools {
    nodes: Vec<Vec<NodeId>>,
    bools: Vec<Vec<bool>>,
}

/// The shared medium. One instance per simulation.
#[derive(Debug)]
pub struct Channel {
    adj: Arc<ChannelAdjacency>,
    carrier_count: Vec<u32>,
    transmitting: Vec<bool>,
    /// Transmission slab; freed slots are reused via `free`.
    slots: Vec<ActiveTx>,
    free: Vec<u32>,
    /// Per-node index of the in-flight copies decodable at each node,
    /// laid out like the communication CSR: node `h` owns
    /// `copies[off[h]..off[h] + copy_len[h]]` (unordered). Adjacency is
    /// symmetric and a sender has at most one frame in flight, so `h`
    /// never holds more copies than it has neighbours.
    copies: Vec<CopyEntry>,
    copy_len: Vec<u32>,
    next_seq: u32,
    /// Recycled per-hearer corruption buffers.
    bool_pool: Vec<Vec<bool>>,
    /// Recycled receiver-list buffers (see [`Channel::recycle_nodes`]).
    node_pool: Vec<Vec<NodeId>>,
    drop_prob: f64,
    /// Optional per-link loss process; composes with `drop_prob`.
    loss_model: Option<Box<dyn LossModel>>,
    rng: SimRng,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a channel over the given topology with no loss injection.
    pub fn new(topology: &Topology, rng: SimRng) -> Self {
        Self::with_adjacency(Arc::new(ChannelAdjacency::build(topology)), rng)
    }

    /// Creates a channel over a pre-built (possibly shared) adjacency
    /// block — the sweep executor's build-cache path.
    pub fn with_adjacency(adj: Arc<ChannelAdjacency>, rng: SimRng) -> Self {
        let n = adj.nodes;
        Channel {
            carrier_count: vec![0; n],
            transmitting: vec![false; n],
            slots: Vec::new(),
            free: Vec::new(),
            copies: vec![CopyEntry::default(); adj.neighbors.flat.len()],
            copy_len: vec![0; n],
            adj,
            next_seq: 0,
            bool_pool: Vec::new(),
            node_pool: Vec::new(),
            drop_prob: 0.0,
            loss_model: None,
            rng,
            stats: ChannelStats::default(),
        }
    }

    /// Sets the per-(frame, receiver) random drop probability used for
    /// transient-loss experiments.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_prob = p;
    }

    /// Current loss-injection probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_prob
    }

    /// Installs a per-link loss process. It runs on every otherwise-
    /// clean copy and **composes** with the static drop probability
    /// (either source of loss kills the copy); drops from both are
    /// counted as [`ChannelStats::injected_drops`].
    pub fn set_loss_model(&mut self, model: Box<dyn LossModel>) {
        self.loss_model = Some(model);
    }

    /// Removes any installed loss process.
    pub fn clear_loss_model(&mut self) {
        self.loss_model = None;
    }

    /// True if any in-flight transmission is audible at `node`.
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        self.carrier_count[node.index()] > 0
    }

    /// True if `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.transmitting[node.index()]
    }

    /// Run counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Moves the channel's warmed buffer pools into `pools` (called at
    /// the end of a pooled run so the next run's channel starts warm).
    pub fn harvest_pools(&mut self, pools: &mut ChannelPools) {
        pools.nodes.append(&mut self.node_pool);
        pools.bools.append(&mut self.bool_pool);
    }

    /// Adopts previously harvested buffer pools.
    pub fn adopt_pools(&mut self, pools: &mut ChannelPools) {
        self.node_pool.append(&mut pools.nodes);
        self.bool_pool.append(&mut pools.bools);
    }

    /// Returns a receiver-list vector to the channel's buffer pool.
    ///
    /// Optional: callers that consume [`TxStart::now_busy`] can hand the
    /// vector back here to keep the begin path allocation-free in steady
    /// state.
    pub fn recycle_nodes(&mut self, mut v: Vec<NodeId>) {
        v.clear();
        self.node_pool.push(v);
    }

    fn take_nodes(&mut self) -> Vec<NodeId> {
        self.node_pool.pop().unwrap_or_default()
    }

    /// Corrupts every in-flight copy decodable at `node`, counting each
    /// newly corrupted copy as one collision.
    fn corrupt_copies_at(&mut self, node: NodeId) {
        let base = self.adj.neighbors.off[node.index()] as usize;
        let len = self.copy_len[node.index()] as usize;
        for c in &self.copies[base..base + len] {
            let flag = &mut self.slots[c.slot as usize].corrupted[c.pos as usize];
            if !*flag {
                *flag = true;
                self.stats.collisions += 1;
            }
        }
    }

    /// Starts a transmission from `sender` lasting `airtime`.
    ///
    /// The caller must schedule a call to [`Channel::end_tx_into`] exactly
    /// `airtime` later and must ensure the sender's radio is active.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is already transmitting (the MAC must never do
    /// this).
    pub fn begin_tx(&mut self, now: SimTime, sender: NodeId, airtime: SimDuration) -> TxStart {
        let _ = airtime; // airtime is enforced by the caller's end event
        assert!(
            !self.transmitting[sender.index()],
            "{sender} started a second concurrent transmission"
        );
        self.stats.transmissions += 1;
        self.transmitting[sender.index()] = true;

        // The sender cannot receive while transmitting: corrupt every
        // in-flight copy addressed at it.
        self.corrupt_copies_at(sender);

        let si = sender.index();
        let hearer_count = (self.adj.neighbors.off[si + 1] - self.adj.neighbors.off[si]) as usize;
        let mut corrupted = self.bool_pool.pop().unwrap_or_default();
        corrupted.clear();
        corrupted.resize(hearer_count, false);
        let mut now_busy = self.take_nodes();

        // Energy is sensed — and corrupts concurrent receptions — out to
        // the interference range; only communication-range hearers can
        // decode the frame itself.
        let (i0, i1) = (
            self.adj.interference.off[si] as usize,
            self.adj.interference.off[si + 1] as usize,
        );
        for idx in i0..i1 {
            let h = self.adj.interference.flat[idx];
            let cc = &mut self.carrier_count[h.index()];
            *cc += 1;
            let cc = *cc;
            if cc == 1 {
                now_busy.push(h);
            }
            // Overlap: any second audible transmission at h destroys
            // every decodable copy there (no capture).
            if cc >= 2 {
                self.corrupt_copies_at(h);
            }
        }
        let slot = self.free.pop().unwrap_or(self.slots.len() as u32);
        let (h0, h1) = (
            self.adj.neighbors.off[si] as usize,
            self.adj.neighbors.off[si + 1] as usize,
        );
        for (i, idx) in (h0..h1).enumerate() {
            let h = self.adj.neighbors.flat[idx].index();
            // Half-duplex: a transmitting hearer cannot receive.
            if self.transmitting[h] {
                corrupted[i] = true;
                self.stats.collisions += 1;
            }
            // The new copy is corrupted wherever other energy overlaps.
            if self.carrier_count[h] >= 2 && !corrupted[i] {
                corrupted[i] = true;
                self.stats.collisions += 1;
            }
            // Index the new copy at its hearer. The index is only read by
            // `corrupt_copies_at`, which ran above, so a transmission
            // never corrupts its own copies.
            let len = &mut self.copy_len[h];
            debug_assert!(
                self.adj.neighbors.off[h] + *len < self.adj.neighbors.off[h + 1],
                "copy index of {h} is full: adjacency is not symmetric"
            );
            self.copies[(self.adj.neighbors.off[h] + *len) as usize] = CopyEntry {
                slot,
                pos: i as u32,
            };
            *len += 1;
        }

        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let tx = ActiveTx {
            seq,
            live: true,
            sender,
            start: now,
            corrupted,
        };
        match self.slots.get_mut(slot as usize) {
            Some(reused) => *reused = tx,
            None => self.slots.push(tx),
        }
        TxStart {
            id: TxId::new(slot, seq),
            now_busy,
        }
    }

    /// Finishes a transmission, writing delivery outcomes and carrier
    /// transitions into a caller-recycled [`TxEndBuf`].
    ///
    /// The fan-out is vectorised: receivers are classified with slice
    /// passes over the sender's CSR adjacency ranges — one pass finalises
    /// the per-hearer corruption flags (loss injection draws happen here,
    /// in ascending-id order), then clean and corrupted hearers are
    /// written as contiguous partitions of the flat outcome list.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not correspond to an in-flight transmission.
    pub fn end_tx_into(&mut self, now: SimTime, id: TxId, out: &mut TxEndBuf) {
        let slot = id.slot();
        assert!(
            self.slots
                .get(slot)
                .is_some_and(|tx| tx.live && tx.seq == id.seq()),
            "end_tx_into for unknown transmission"
        );
        let (sender, start, mut corrupted) = {
            let tx = &mut self.slots[slot];
            tx.live = false;
            (tx.sender, tx.start, std::mem::take(&mut tx.corrupted))
        };
        self.free.push(slot as u32);
        self.transmitting[sender.index()] = false;
        out.reset(sender, start);

        let si = sender.index();
        let (h0, h1) = (
            self.adj.neighbors.off[si] as usize,
            self.adj.neighbors.off[si + 1] as usize,
        );
        let hearers = &self.adj.neighbors.flat[h0..h1];

        // Pass 1 — finalise corruption flags in hearer (ascending-id)
        // order. Loss draws must happen here, one per otherwise-clean
        // copy, to keep the RNG sequence identical to the historical
        // per-receiver path.
        if self.loss_model.is_some() || self.drop_prob > 0.0 {
            for (i, &h) in hearers.iter().enumerate() {
                if corrupted[i] {
                    continue;
                }
                // Loss sources compose: the per-link model (if any) OR
                // the configured baseline probability. An installed
                // model used to silently override the baseline.
                let injected = match self.loss_model.as_deref_mut() {
                    Some(model) => model.dropped(now, sender, h),
                    None => false,
                } || (self.drop_prob > 0.0 && self.rng.chance(self.drop_prob));
                if injected {
                    corrupted[i] = true;
                    self.stats.injected_drops += 1;
                }
            }
        }

        // Pass 2 — partition hearers into the flat outcome list: clean
        // first, corrupted second, both in hearer order. The first sweep
        // also drops each copy from its hearer's index (swap-remove; a
        // node holds at most one copy per in-flight transmission).
        for (i, &h) in hearers.iter().enumerate() {
            let base = self.adj.neighbors.off[h.index()] as usize;
            let len = &mut self.copy_len[h.index()];
            let region = &mut self.copies[base..base + *len as usize];
            let k = region
                .iter()
                .position(|c| c.slot == slot as u32)
                .expect("copy index lost an in-flight copy");
            *len -= 1;
            region[k] = region[*len as usize];
            if !corrupted[i] {
                out.nodes.push(h);
            }
        }
        out.clean_end = out.nodes.len();
        for (i, &h) in hearers.iter().enumerate() {
            if corrupted[i] {
                out.nodes.push(h);
            }
        }
        out.corrupted_end = out.nodes.len();

        // Pass 3 — decrement carrier counts over the interference range,
        // appending the 1 → 0 transitions as the final partition.
        let (i0, i1) = (
            self.adj.interference.off[si] as usize,
            self.adj.interference.off[si + 1] as usize,
        );
        for &h in &self.adj.interference.flat[i0..i1] {
            let cc = &mut self.carrier_count[h.index()];
            debug_assert!(*cc > 0, "carrier count underflow at {h}");
            *cc -= 1;
            if *cc == 0 {
                out.nodes.push(h);
            }
        }

        // Return the corruption buffer to the pool.
        self.bool_pool.push(corrupted);
    }

    /// Exhaustive consistency check of the per-node copy index; the
    /// simulation sanitizer calls it on every sweep.
    ///
    /// # Panics
    ///
    /// Panics unless every hearer of every live transmission holds
    /// exactly one index entry for it, at the hearer's own position,
    /// and no entry points at a freed slot.
    pub fn check_invariants(&self) {
        let hearers = |s: usize| {
            &self.adj.neighbors.flat
                [self.adj.neighbors.off[s] as usize..self.adj.neighbors.off[s + 1] as usize]
        };
        let region = |h: usize| {
            let base = self.adj.neighbors.off[h] as usize;
            let len = self.copy_len[h] as usize;
            assert!(
                base + len <= self.adj.neighbors.off[h + 1] as usize,
                "copy index of node {h} overflows its region"
            );
            &self.copies[base..base + len]
        };
        for h in 0..self.adj.nodes {
            for c in region(h) {
                let tx = &self.slots[c.slot as usize];
                assert!(
                    tx.live,
                    "copy index of node {h} names freed slot {}",
                    c.slot
                );
                assert_eq!(
                    hearers(tx.sender.index())
                        .get(c.pos as usize)
                        .map(|n| n.index()),
                    Some(h),
                    "copy index of node {h} names slot {} at a position that is not {h}",
                    c.slot
                );
            }
        }
        for (slot, tx) in self.slots.iter().enumerate().filter(|(_, tx)| tx.live) {
            for (pos, &h) in hearers(tx.sender.index()).iter().enumerate() {
                let mut hits = region(h.index()).iter().filter(|c| c.slot as usize == slot);
                assert_eq!(
                    (hits.next().map(|c| c.pos as usize), hits.next().is_some()),
                    (Some(pos), false),
                    "live slot {slot} must have exactly one index entry at hearer {h}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t_us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Ends `id` into a fresh outcome buffer.
    fn finish(ch: &mut Channel, now: SimTime, id: TxId) -> TxEndBuf {
        let mut buf = TxEndBuf::default();
        ch.end_tx_into(now, id, &mut buf);
        buf
    }

    /// 0 - 1 - 2 - 3 line, only adjacent nodes hear each other.
    fn line4() -> Channel {
        let topo = Topology::line(4, 10.0, 12.0);
        Channel::new(&topo, SimRng::seed_from_u64(42))
    }

    #[test]
    fn clean_delivery_to_neighbors_only() {
        let mut ch = line4();
        let tx = ch.begin_tx(t_us(0), n(1), us(416));
        assert_eq!(tx.now_busy, vec![n(0), n(2)]);
        let end = finish(&mut ch, t_us(416), tx.id);
        assert_eq!(end.clean(), vec![n(0), n(2)]);
        assert!(end.corrupted().is_empty());
        assert_eq!(end.now_idle(), vec![n(0), n(2)]);
        assert_eq!(ch.stats().transmissions, 1);
        assert_eq!(ch.stats().collisions, 0);
    }

    #[test]
    fn overlapping_transmissions_collide_at_common_hearer() {
        let mut ch = line4();
        // 0 and 2 both transmit; node 1 hears both -> both corrupt at 1.
        let a = ch.begin_tx(t_us(0), n(0), us(416));
        let b = ch.begin_tx(t_us(100), n(2), us(416));
        let end_a = finish(&mut ch, t_us(416), a.id);
        assert!(end_a.clean().is_empty());
        assert_eq!(end_a.corrupted(), vec![n(1)]);
        let end_b = finish(&mut ch, t_us(516), b.id);
        // Node 3 only hears 2, so its copy survives; node 1's copy died.
        assert_eq!(end_b.clean(), vec![n(3)]);
        assert_eq!(end_b.corrupted(), vec![n(1)]);
        assert!(ch.stats().collisions >= 2);
    }

    #[test]
    fn end_tx_into_partitions_match_wrapper() {
        // Two identically-seeded channels with loss injection: ending
        // every transmission into one reused buffer must produce the
        // same partitions, in the same order, from the same RNG draw
        // sequence as the fresh-buffer `finish` wrapper.
        let topo = Topology::line(6, 10.0, 12.0);
        let mut a = Channel::new(&topo, SimRng::seed_from_u64(9));
        let mut b = Channel::new(&topo, SimRng::seed_from_u64(9));
        a.set_drop_probability(0.4);
        b.set_drop_probability(0.4);
        let mut buf = TxEndBuf::default();
        for round in 0..64u64 {
            let t0 = t_us(round * 1_000);
            let sender = n((round % 6) as u32);
            let ta = a.begin_tx(t0, sender, us(416));
            let tb = b.begin_tx(t0, sender, us(416));
            a.recycle_nodes(ta.now_busy);
            b.recycle_nodes(tb.now_busy);
            let fresh = finish(&mut a, t0 + us(416), ta.id);
            b.end_tx_into(t0 + us(416), tb.id, &mut buf);
            assert_eq!(fresh.sender, buf.sender);
            assert_eq!(fresh.started, buf.started);
            assert_eq!(fresh.clean(), buf.clean());
            assert_eq!(fresh.corrupted(), buf.corrupted());
            assert_eq!(fresh.now_idle(), buf.now_idle());
            assert_eq!(buf.corrupted().len() as u32, buf.corrupted_len());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(
            a.stats().injected_drops > 0,
            "the corrupted partition was never exercised"
        );
    }

    #[test]
    fn non_overlapping_sequential_txs_are_clean() {
        let mut ch = line4();
        let a = ch.begin_tx(t_us(0), n(0), us(416));
        let ea = finish(&mut ch, t_us(416), a.id);
        assert_eq!(ea.clean(), vec![n(1)]);
        let b = ch.begin_tx(t_us(500), n(2), us(416));
        let eb = finish(&mut ch, t_us(916), b.id);
        assert_eq!(eb.clean(), vec![n(1), n(3)]);
        assert_eq!(ch.stats().collisions, 0);
    }

    #[test]
    fn half_duplex_sender_cannot_receive() {
        let mut ch = line4();
        // 1 transmits; while it does, 2 transmits too. 1 must not receive
        // 2's frame even though only one tx is audible at 1 (its own tx
        // doesn't count toward its carrier).
        let a = ch.begin_tx(t_us(0), n(1), us(416));
        let b = ch.begin_tx(t_us(10), n(2), us(100));
        let eb = finish(&mut ch, t_us(110), b.id);
        assert!(
            !eb.clean().contains(&n(1)),
            "transmitting node must not receive"
        );
        // 3 hears only 2's tx -> clean there.
        assert!(eb.clean().contains(&n(3)));
        let ea = finish(&mut ch, t_us(416), a.id);
        // 1's frame is corrupted at 2 (2 was transmitting during it).
        assert!(ea.corrupted().contains(&n(2)));
        // ...and clean at 0 (0 heard only 1's frame).
        assert!(ea.clean().contains(&n(0)));
    }

    #[test]
    fn late_starter_corrupts_frame_already_in_flight() {
        let mut ch = line4();
        let a = ch.begin_tx(t_us(0), n(0), us(416)); // 1 hears
                                                     // 2 starts mid-flight; at node 1 carrier goes 1 -> 2.
        let _b = ch.begin_tx(t_us(200), n(2), us(416));
        let ea = finish(&mut ch, t_us(416), a.id);
        assert_eq!(ea.corrupted(), vec![n(1)]);
        assert!(ea.clean().is_empty());
    }

    #[test]
    fn carrier_counts_track_busy_idle() {
        let mut ch = line4();
        assert!(!ch.carrier_busy(n(1)));
        let a = ch.begin_tx(t_us(0), n(0), us(416));
        assert!(ch.carrier_busy(n(1)));
        assert!(!ch.carrier_busy(n(3)));
        let b = ch.begin_tx(t_us(10), n(2), us(416));
        assert!(ch.carrier_busy(n(3)));
        let ea = finish(&mut ch, t_us(416), a.id);
        assert!(!ea.now_idle().contains(&n(1)), "1 still hears 2's tx");
        assert!(ch.carrier_busy(n(1)));
        let eb = finish(&mut ch, t_us(426), b.id);
        assert!(eb.now_idle().contains(&n(1)));
        assert!(!ch.carrier_busy(n(1)));
        assert!(!ch.carrier_busy(n(3)));
    }

    #[test]
    fn is_transmitting_lifecycle() {
        let mut ch = line4();
        assert!(!ch.is_transmitting(n(0)));
        let a = ch.begin_tx(t_us(0), n(0), us(10));
        assert!(ch.is_transmitting(n(0)));
        finish(&mut ch, t_us(10), a.id);
        assert!(!ch.is_transmitting(n(0)));
    }

    #[test]
    #[should_panic(expected = "second concurrent transmission")]
    fn double_tx_rejected() {
        let mut ch = line4();
        let _ = ch.begin_tx(t_us(0), n(0), us(10));
        let _ = ch.begin_tx(t_us(1), n(0), us(10));
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn stale_tx_id_rejected() {
        let mut ch = line4();
        let a = ch.begin_tx(t_us(0), n(0), us(10));
        finish(&mut ch, t_us(10), a.id);
        // The slot is reused by a new transmission; the stale id must
        // not end it.
        let _b = ch.begin_tx(t_us(20), n(2), us(10));
        finish(&mut ch, t_us(30), a.id);
    }

    #[test]
    fn slab_reuse_many_sequential_txs() {
        let mut ch = line4();
        let mut end = TxEndBuf::default();
        for i in 0..1_000u64 {
            let t0 = t_us(i * 1_000);
            let tx = ch.begin_tx(t0, n((i % 4) as u32), us(416));
            ch.end_tx_into(t0 + us(416), tx.id, &mut end);
            ch.recycle_nodes(tx.now_busy);
        }
        assert_eq!(ch.stats().transmissions, 1_000);
        assert_eq!(ch.stats().collisions, 0);
        for i in 0..4 {
            assert!(!ch.carrier_busy(n(i)));
            assert!(!ch.is_transmitting(n(i)));
        }
    }

    #[test]
    fn loss_injection_drops_roughly_p() {
        let topo = Topology::line(2, 10.0, 12.0);
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(7));
        ch.set_drop_probability(0.3);
        let mut dropped = 0;
        let trials = 2000;
        for i in 0..trials {
            let t0 = SimTime::from_micros(i * 1000);
            let tx = ch.begin_tx(t0, n(0), us(416));
            let end = finish(&mut ch, t0 + us(416), tx.id);
            if end.corrupted().contains(&n(1)) {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.05, "drop fraction {frac}");
        assert_eq!(ch.stats().injected_drops, dropped);
        assert_eq!(ch.stats().collisions, 0);
    }

    /// Drops every copy at one chosen receiver, nothing else.
    #[derive(Debug)]
    struct DropAt(NodeId);

    impl LossModel for DropAt {
        fn dropped(&mut self, _now: SimTime, _sender: NodeId, receiver: NodeId) -> bool {
            receiver == self.0
        }
    }

    #[test]
    fn loss_model_composes_with_static_probability() {
        // Model alone: only its chosen receiver loses copies.
        let mut ch = line4();
        ch.set_loss_model(Box::new(DropAt(n(0))));
        let tx = ch.begin_tx(t_us(0), n(1), us(416));
        let end = finish(&mut ch, t_us(416), tx.id);
        assert_eq!(end.clean(), vec![n(2)]);
        assert_eq!(end.corrupted(), vec![n(0)]);
        assert_eq!(ch.stats().injected_drops, 1);
        // Baseline composes on top of the model instead of being
        // silently overridden (the PR 3 review bug): with p = 1 every
        // copy the model spared is still dropped by the baseline.
        ch.set_drop_probability(1.0);
        let tx = ch.begin_tx(t_us(1_000), n(1), us(416));
        let end = finish(&mut ch, t_us(1_416), tx.id);
        assert!(end.clean().is_empty(), "baseline must still fire");
        assert_eq!(end.corrupted(), vec![n(0), n(2)]);
        assert_eq!(ch.stats().injected_drops, 3);
        // Removing the model keeps the static path.
        ch.clear_loss_model();
        let tx = ch.begin_tx(t_us(2_000), n(1), us(416));
        let end = finish(&mut ch, t_us(2_416), tx.id);
        assert!(end.clean().is_empty(), "p = 1 drops every copy");
        assert_eq!(end.corrupted(), vec![n(0), n(2)]);
    }

    #[test]
    fn loss_model_sees_frame_end_time_and_endpoints() {
        #[derive(Debug, Default)]
        struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<(SimTime, NodeId, NodeId)>>>);
        impl LossModel for Recorder {
            fn dropped(&mut self, now: SimTime, sender: NodeId, receiver: NodeId) -> bool {
                self.0.lock().unwrap().push((now, sender, receiver));
                false
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut ch = line4();
        ch.set_loss_model(Box::new(Recorder(log.clone())));
        let tx = ch.begin_tx(t_us(100), n(1), us(416));
        let _ = finish(&mut ch, t_us(516), tx.id);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(t_us(516), n(1), n(0)), (t_us(516), n(1), n(2))]
        );
    }

    #[test]
    fn isolated_node_transmission_reaches_nobody() {
        let topo = Topology::line(2, 100.0, 10.0); // out of range
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(1));
        let tx = ch.begin_tx(t_us(0), n(0), us(416));
        assert!(tx.now_busy.is_empty());
        let end = finish(&mut ch, t_us(416), tx.id);
        assert!(end.clean().is_empty());
        assert!(end.corrupted().is_empty());
    }

    #[test]
    fn tx_end_reports_start_time() {
        let mut ch = line4();
        let tx = ch.begin_tx(t_us(123), n(0), us(10));
        let end = finish(&mut ch, t_us(133), tx.id);
        assert_eq!(end.started, t_us(123));
        assert_eq!(end.sender, n(0));
    }
}

#[cfg(test)]
mod interference_tests {
    use super::*;
    use crate::topology::Topology;
    use essat_sim::rng::SimRng;
    use essat_sim::time::{SimDuration, SimTime};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t_us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Ends `id` into a fresh outcome buffer.
    fn finish(ch: &mut Channel, now: SimTime, id: TxId) -> TxEndBuf {
        let mut buf = TxEndBuf::default();
        ch.end_tx_into(now, id, &mut buf);
        buf
    }

    /// Line 0-1-2-3 spaced 10 m apart: communication 12 m (adjacent
    /// only), interference 22 m (two hops).
    fn two_range() -> Channel {
        let topo = Topology::line(4, 10.0, 12.0).with_interference_range(22.0);
        Channel::new(&topo, SimRng::seed_from_u64(5))
    }

    #[test]
    fn interference_is_sensed_but_not_decoded() {
        let mut ch = two_range();
        let tx = ch.begin_tx(t_us(0), n(0), us(416));
        // Node 2 senses node 0 (22 m reach) but cannot decode it.
        assert!(
            ch.carrier_busy(n(2)),
            "carrier sensed at interference range"
        );
        assert!(tx.now_busy.contains(&n(2)));
        assert!(!ch.carrier_busy(n(3)), "three hops is beyond interference");
        let end = finish(&mut ch, t_us(416), tx.id);
        assert_eq!(end.clean(), vec![n(1)], "only comm-range decodes");
        assert!(!end.corrupted().contains(&n(2)));
        assert!(end.now_idle().contains(&n(2)));
        assert!(!ch.carrier_busy(n(2)));
    }

    #[test]
    fn hidden_interferer_corrupts_reception() {
        let mut ch = two_range();
        // 0 transmits to 1; 3 transmits concurrently. 3 is outside 1's
        // communication range but inside its interference range — the
        // classic hidden-terminal corruption the one-range model misses.
        let a = ch.begin_tx(t_us(0), n(0), us(416));
        let _b = ch.begin_tx(t_us(100), n(3), us(416));
        let ea = finish(&mut ch, t_us(416), a.id);
        assert!(
            ea.corrupted().contains(&n(1)),
            "interference-range overlap must corrupt"
        );
        assert!(ea.clean().is_empty());
    }

    #[test]
    fn one_range_default_unchanged() {
        // Without an explicit interference range the two lists coincide,
        // so 3's transmission cannot affect 1.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(5));
        let a = ch.begin_tx(t_us(0), n(0), us(416));
        let _b = ch.begin_tx(t_us(100), n(3), us(416));
        let ea = finish(&mut ch, t_us(416), a.id);
        assert_eq!(ea.clean(), vec![n(1)]);
    }
}
