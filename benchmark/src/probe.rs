//! The traced run's probe: counts and host self time per dispatched
//! event kind, plus the layer counters the `Probe` seam reports.
//!
//! A dispatch span opens at `on_event` and closes at the next
//! `on_event` (or `on_run_end`), so a kind's self time covers its
//! handler and the engine's pop of the next event. Spans stay in
//! memory; the caller writes them out when the run ends.

use std::time::Instant;

use essat_obs::{PolicyActionKind, Probe, SampleView};
use essat_sim::time::SimTime;

/// Policy action kinds in report order (`policy.actions.<name>`).
pub const POLICY_ACTIONS: [&str; 5] = ["wake_radio", "set_timer", "sleep", "enqueue", "send_atim"];

/// Dispatch count and summed self time of one event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindSpan {
    /// Dispatches.
    pub count: u64,
    /// Summed host nanoseconds.
    pub self_ns: u64,
}

/// What one traced job recorded.
#[derive(Debug, Clone, Default)]
pub struct LayerProbe {
    /// Per event kind, in first-seen order.
    pub kinds: Vec<(&'static str, KindSpan)>,
    open: Option<(usize, Instant)>,
    /// Radio state changes (to active or to sleep).
    pub radio_transitions: u64,
    /// Policy actions by kind, indexed like [`POLICY_ACTIONS`].
    pub policy_actions: [u64; 5],
    /// Sleep checkpoints offered to policies.
    pub sleep_checkpoints: u64,
    /// Transmissions that left the air.
    pub tx_ended: u64,
    /// Clean receptions at their end.
    pub tx_clean: u64,
    /// Collision-corrupted receptions at their end.
    pub tx_corrupted: u64,
    /// Rounds the root sealed.
    pub rounds_sealed: u64,
    /// Sealed rounds every registered source contributed to.
    pub rounds_full: u64,
}

impl LayerProbe {
    /// The span of `kind`, zero if it never dispatched.
    pub fn span(&self, kind: &str) -> KindSpan {
        self.kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Adds another job's record into this one.
    pub fn merge(&mut self, other: &LayerProbe) {
        for &(kind, s) in &other.kinds {
            let i = self.index(kind);
            self.kinds[i].1.count += s.count;
            self.kinds[i].1.self_ns += s.self_ns;
        }
        self.radio_transitions += other.radio_transitions;
        for (a, b) in self.policy_actions.iter_mut().zip(other.policy_actions) {
            *a += b;
        }
        self.sleep_checkpoints += other.sleep_checkpoints;
        self.tx_ended += other.tx_ended;
        self.tx_clean += other.tx_clean;
        self.tx_corrupted += other.tx_corrupted;
        self.rounds_sealed += other.rounds_sealed;
        self.rounds_full += other.rounds_full;
    }

    fn index(&mut self, kind: &'static str) -> usize {
        match self.kinds.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.kinds.push((kind, KindSpan::default()));
                self.kinds.len() - 1
            }
        }
    }

    fn close(&mut self, at: Instant) {
        if let Some((i, t0)) = self.open.take() {
            let s = &mut self.kinds[i].1;
            s.count += 1;
            s.self_ns += at.duration_since(t0).as_nanos() as u64;
        }
    }
}

impl Probe for LayerProbe {
    fn on_event(&mut self, _now: SimTime, kind: &'static str, _view: &dyn SampleView) {
        let t = Instant::now();
        self.close(t);
        let i = self.index(kind);
        self.open = Some((i, t));
    }

    fn on_radio_state(&mut self, _now: SimTime, _node: u32, _active: bool) {
        self.radio_transitions += 1;
    }

    fn on_policy_action(&mut self, _now: SimTime, _node: u32, kind: PolicyActionKind) {
        if let Some(i) = POLICY_ACTIONS.iter().position(|&a| a == kind.as_str()) {
            self.policy_actions[i] += 1;
        }
    }

    fn on_sleep_checkpoint(&mut self, _now: SimTime, _node: u32) {
        self.sleep_checkpoints += 1;
    }

    fn on_tx_end(&mut self, _now: SimTime, _sender: u32, clean: u32, corrupted: u32) {
        self.tx_ended += 1;
        self.tx_clean += clean as u64;
        self.tx_corrupted += corrupted as u64;
    }

    fn on_round_sealed(&mut self, _now: SimTime, _node: u32, _q: u32, _round: u64, full: bool) {
        self.rounds_sealed += 1;
        self.rounds_full += full as u64;
    }

    fn on_run_end(&mut self, _end: SimTime, _view: &dyn SampleView) {
        self.close(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_close_at_the_next_dispatch_and_merge_by_kind() {
        let mut a = LayerProbe::default();
        a.close(Instant::now()); // nothing open: no-op
        a.kinds.push((
            "mac_timer",
            KindSpan {
                count: 2,
                self_ns: 10,
            },
        ));
        a.open = Some((0, Instant::now()));
        a.close(Instant::now());
        assert_eq!(a.span("mac_timer").count, 3);
        let mut b = LayerProbe::default();
        b.kinds.push((
            "tx_end",
            KindSpan {
                count: 1,
                self_ns: 5,
            },
        ));
        b.kinds.push((
            "mac_timer",
            KindSpan {
                count: 1,
                self_ns: 1,
            },
        ));
        b.policy_actions[2] = 4;
        a.merge(&b);
        assert_eq!(a.span("mac_timer").count, 4);
        assert_eq!(
            a.span("tx_end"),
            KindSpan {
                count: 1,
                self_ns: 5
            }
        );
        assert_eq!(a.span("policy"), KindSpan::default());
        assert_eq!(a.policy_actions[2], 4);
    }
}
