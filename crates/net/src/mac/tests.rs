//! Unit tests for the CSMA/CA state machine (split out of
//! `mod.rs` to keep it under the module-size lint).

use super::*;

type TMac = Mac<u32>;

fn mk(node: u32) -> TMac {
    Mac::new(
        NodeId::new(node),
        MacParams::paper(),
        SimRng::seed_from_u64(node as u64 + 1),
    )
}

fn data(mac: &mut TMac, dest: Dest, payload: u32) -> Frame<u32> {
    Frame {
        id: mac.alloc_frame_id(),
        src: mac.node(),
        dest,
        kind: FrameKind::Data,
        bytes: 52,
        payload,
    }
}

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// Collects the actions one `*_into` entry point appends.
fn collect(call: impl FnOnce(&mut Vec<MacAction<u32>>)) -> Vec<MacAction<u32>> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

/// Drive one SetTimer action to expiry, returning follow-up actions.
fn fire(mac: &mut TMac, actions: &[MacAction<u32>], now: SimTime) -> Vec<MacAction<u32>> {
    for a in actions {
        if let MacAction::SetTimer { kind, .. } = a {
            return collect(|out| mac.timer_fired_into(*kind, now, out));
        }
    }
    panic!("no timer among actions: {actions:?}");
}

fn has_tx(actions: &[MacAction<u32>]) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, MacAction::StartTx { .. }))
}

#[test]
fn fresh_frame_idle_medium_txs_after_difs() {
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 9);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out));
    assert!(matches!(
        a1[0],
        MacAction::SetTimer {
            kind: MacTimer::Difs,
            ..
        }
    ));
    let a2 = fire(&mut mac, &a1, t(50));
    assert!(has_tx(&a2), "no backoff for a fresh frame on idle medium");
}

#[test]
fn broadcast_completes_without_ack() {
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 1);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out));
    let a2 = fire(&mut mac, &a1, t(50));
    assert!(has_tx(&a2));
    let a3 = collect(|out| mac.tx_ended_into(t(466), out));
    assert!(a3
        .iter()
        .any(|a| matches!(a, MacAction::TxDone { frame, attempts: 1 } if frame.id == f.id)));
    assert!(mac.is_quiescent());
}

#[test]
fn unicast_waits_for_ack_then_succeeds() {
    let mut sender = mk(0);
    let mut receiver = mk(1);
    let f = data(&mut sender, Dest::Unicast(NodeId::new(1)), 7);
    let a1 = collect(|out| sender.enqueue_into(f, t(0), out));
    let a2 = fire(&mut sender, &a1, t(50));
    assert!(has_tx(&a2));
    // Frame lands at receiver.
    let a3 = collect(|out| receiver.frame_arrived_into(f, t(466), out));
    assert!(a3
        .iter()
        .any(|a| matches!(a, MacAction::Deliver { frame } if frame.payload == 7)));
    // Receiver schedules the ACK after SIFS...
    let a4 = fire(&mut receiver, &a3, t(476));
    let ack = a4
        .iter()
        .find_map(|a| match a {
            MacAction::StartTx { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("ack tx");
    assert_eq!(ack.kind, FrameKind::Ack(f.id));
    // Sender finished its data tx, is waiting for the ACK...
    let _ = collect(|out| sender.tx_ended_into(t(466), out));
    let a5 = collect(|out| sender.frame_arrived_into(ack, t(588), out));
    assert!(a5
        .iter()
        .any(|a| matches!(a, MacAction::TxDone { attempts: 1, .. })));
    let _ = collect(|out| receiver.tx_ended_into(t(588), out));
    assert!(sender.is_quiescent());
    assert!(receiver.is_quiescent());
    assert_eq!(sender.stats().delivered, 1);
    assert_eq!(receiver.stats().ack_tx, 1);
}

#[test]
fn ack_timeout_triggers_retry_with_wider_cw() {
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Unicast(NodeId::new(1)), 7);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out));
    let a2 = fire(&mut mac, &a1, t(50));
    assert!(has_tx(&a2));
    let a3 = collect(|out| mac.tx_ended_into(t(466), out));
    // AckTimeout armed.
    let a4 = fire(&mut mac, &a3, t(700));
    // Retry: DIFS timer armed again (medium idle).
    assert!(a4.iter().any(|a| matches!(
        a,
        MacAction::SetTimer {
            kind: MacTimer::Difs,
            ..
        }
    )));
    assert_eq!(mac.stats().retries, 1);
    assert_eq!(mac.cw, 64, "contention window doubled");
    // Retry uses a backoff (cw_pending) — fire DIFS, expect either tx
    // (slot 0) or a backoff timer.
    let a5 = fire(&mut mac, &a4, t(750));
    let tx_or_backoff = has_tx(&a5)
        || a5.iter().any(|a| {
            matches!(
                a,
                MacAction::SetTimer {
                    kind: MacTimer::Backoff,
                    ..
                }
            )
        });
    assert!(tx_or_backoff);
}

#[test]
fn frame_dropped_after_retry_limit() {
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Unicast(NodeId::new(1)), 7);
    let mut actions = collect(|out| mac.enqueue_into(f, t(0), out));
    let mut now = t(0);
    let mut failed = false;
    // Walk the machine through enough retries to exhaust the limit.
    for _ in 0..200 {
        now += SimDuration::from_micros(5000);
        let next: Vec<MacAction<u32>> = match actions
            .iter()
            .find(|a| matches!(a, MacAction::SetTimer { .. }))
        {
            Some(MacAction::SetTimer { kind, .. }) => {
                collect(|out| mac.timer_fired_into(*kind, now, out))
            }
            _ => {
                if actions
                    .iter()
                    .any(|a| matches!(a, MacAction::StartTx { .. }))
                {
                    collect(|out| mac.tx_ended_into(now, out))
                } else {
                    break;
                }
            }
        };
        if next
            .iter()
            .any(|a| matches!(a, MacAction::TxFailed { attempts, .. } if *attempts == 7))
        {
            failed = true;
            break;
        }
        actions = next;
    }
    assert!(failed, "frame should fail after the retry limit");
    assert!(mac.is_quiescent());
    assert_eq!(mac.stats().failed, 1);
}

#[test]
fn busy_medium_defers_then_backoff() {
    let mut mac = mk(0);
    mac.carrier_busy(t(0));
    let f = data(&mut mac, Dest::Broadcast, 1);
    let a1 = collect(|out| mac.enqueue_into(f, t(1), out));
    assert!(a1.is_empty(), "no access while busy");
    let a2 = collect(|out| mac.carrier_idle_into(t(1000), out));
    // DIFS first...
    assert!(a2.iter().any(|a| matches!(
        a,
        MacAction::SetTimer {
            kind: MacTimer::Difs,
            ..
        }
    )));
    let a3 = fire(&mut mac, &a2, t(1050));
    // ...then a contention backoff (cw_pending was set by the busy
    // medium) or an immediate tx if the draw was zero slots.
    assert!(
        has_tx(&a3)
            || a3.iter().any(|a| matches!(
                a,
                MacAction::SetTimer {
                    kind: MacTimer::Backoff,
                    ..
                }
            ))
    );
}

#[test]
fn backoff_freezes_and_resumes() {
    // Force a known backoff by trying seeds until a nonzero draw.
    let mut mac = mk(3);
    mac.carrier_busy(t(0));
    let f = data(&mut mac, Dest::Broadcast, 1);
    let _ = collect(|out| mac.enqueue_into(f, t(1), out));
    let a2 = collect(|out| mac.carrier_idle_into(t(100), out));
    let a3 = fire(&mut mac, &a2, t(150));
    let backoff = a3.iter().find_map(|a| match a {
        MacAction::SetTimer {
            kind: MacTimer::Backoff,
            after,
            ..
        } => Some(*after),
        _ => None,
    });
    let Some(backoff) = backoff else {
        // Zero-slot draw: transmission already started; nothing to
        // freeze. The scenario is covered by other seeds.
        assert!(has_tx(&a3));
        return;
    };
    // Freeze partway through.
    mac.carrier_busy(t(160));
    let rem = mac.backoff_remaining.expect("frozen remainder");
    assert!(rem <= backoff);
    assert!(
        rem.as_nanos().is_multiple_of(mac.params().slot.as_nanos()),
        "whole slots"
    );
    // Idle again: DIFS, then the remainder (not a fresh draw).
    let a4 = collect(|out| mac.carrier_idle_into(t(5000), out));
    let a5 = fire(&mut mac, &a4, t(5050));
    let resumed = a5.iter().find_map(|a| match a {
        MacAction::SetTimer {
            kind: MacTimer::Backoff,
            after,
            ..
        } => Some(*after),
        _ => None,
    });
    assert_eq!(resumed, Some(rem));
}

#[test]
fn duplicate_data_is_reacked_but_delivered_once() {
    let mut rx = mk(1);
    let mut sender = mk(0);
    let f = data(&mut sender, Dest::Unicast(NodeId::new(1)), 42);
    let a1 = collect(|out| rx.frame_arrived_into(f, t(0), out));
    assert!(a1.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
    // Drive the first ACK out.
    let a2 = fire(&mut rx, &a1, t(10));
    assert!(has_tx(&a2));
    let _ = collect(|out| rx.tx_ended_into(t(122), out));
    // Retransmission of the same frame.
    let a3 = collect(|out| rx.frame_arrived_into(f, t(1000), out));
    assert!(
        !a3.iter().any(|a| matches!(a, MacAction::Deliver { .. })),
        "duplicate must not be delivered"
    );
    // But it is re-ACKed.
    let a4 = fire(&mut rx, &a3, t(1010));
    assert!(has_tx(&a4));
    assert_eq!(rx.stats().duplicates, 1);
}

#[test]
fn overheard_unicast_not_delivered() {
    let mut mac = mk(2);
    let mut sender = mk(0);
    let f = data(&mut sender, Dest::Unicast(NodeId::new(1)), 5);
    let a = collect(|out| mac.frame_arrived_into(f, t(0), out));
    assert!(a.is_empty());
}

#[test]
fn suspend_retains_queue_and_resumes() {
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 1);
    let _ = collect(|out| mac.enqueue_into(f, t(0), out));
    mac.radio_slept(t(10));
    assert!(!mac.is_quiescent(), "frame still queued");
    assert_eq!(mac.queue_len(), 1);
    let a = collect(|out| mac.radio_woke_into(t(1000), false, out));
    assert!(a.iter().any(|a| matches!(
        a,
        MacAction::SetTimer {
            kind: MacTimer::Difs,
            ..
        }
    )));
}

#[test]
fn disarm_surrenders_handle_for_cancellation() {
    use essat_sim::queue::EventQueue;
    let mut q: EventQueue<()> = EventQueue::new();
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 1);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out)); // arms DIFS
    let MacAction::SetTimer { kind, after } = a1[0] else {
        panic!("expected timer");
    };
    // The executor schedules the expiry and reports the handle back.
    let id = q.push(t(0) + after, ());
    assert_eq!(mac.timer_scheduled(kind, id), None);
    assert_eq!(mac.timer_event(kind), Some(id));
    // Busy disarms the DIFS: the MAC surrenders the handle so the
    // expiry event is truly cancelled, not fired stale.
    mac.carrier_busy(t(10));
    let surrendered = mac.pop_cancelled().expect("disarm surrenders the handle");
    assert_eq!(surrendered, id);
    assert!(mac.pop_cancelled().is_none());
    assert!(q.cancel(surrendered));
    assert!(q.is_empty());
    // Defensive: a late expiry (protocol violated) is still a no-op.
    assert!(collect(|out| mac.timer_fired_into(kind, t(50), out)).is_empty());
}

#[test]
fn arm_superseded_before_scheduling_returns_own_handle() {
    use essat_sim::queue::EventQueue;
    let mut q: EventQueue<()> = EventQueue::new();
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 1);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out));
    let MacAction::SetTimer { kind, after } = a1[0] else {
        panic!("expected timer");
    };
    // The medium goes busy (disarming the DIFS) before the executor
    // schedules the arm's expiry event: reporting the fresh handle back
    // returns it immediately for cancellation.
    mac.carrier_busy(t(0));
    let id = q.push(t(0) + after, ());
    assert_eq!(mac.timer_scheduled(kind, id), Some(id));
    assert_eq!(mac.timer_event(kind), None);
}

#[test]
fn rearm_displaces_previous_handle() {
    use essat_sim::queue::EventQueue;
    let mut q: EventQueue<()> = EventQueue::new();
    let mut mac = mk(0);
    let f = data(&mut mac, Dest::Broadcast, 1);
    let a1 = collect(|out| mac.enqueue_into(f, t(0), out));
    let MacAction::SetTimer { kind, after } = a1[0] else {
        panic!("expected timer");
    };
    let first = q.push(t(0) + after, ());
    assert_eq!(mac.timer_scheduled(kind, first), None);
    // Busy then idle re-arms the DIFS: the disarm surrendered `first`,
    // and the new arm's handle takes its place cleanly.
    mac.carrier_busy(t(10));
    assert_eq!(mac.pop_cancelled(), Some(first));
    let a2 = collect(|out| mac.carrier_idle_into(t(100), out));
    let MacAction::SetTimer { kind, after } = a2[0] else {
        panic!("expected re-armed timer");
    };
    let second = q.push(t(100) + after, ());
    assert_eq!(mac.timer_scheduled(kind, second), None);
    assert_eq!(mac.timer_event(kind), Some(second));
    assert!(mac.pop_cancelled().is_none());
}

#[test]
fn quiescence_reflects_pending_work() {
    let mut mac = mk(0);
    assert!(mac.is_quiescent());
    let f = data(&mut mac, Dest::Broadcast, 1);
    let _ = collect(|out| mac.enqueue_into(f, t(0), out));
    assert!(!mac.is_quiescent());
}

#[test]
fn alloc_frame_ids_unique_across_nodes() {
    let mut a = mk(0);
    let mut b = mk(1);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..100 {
        assert!(seen.insert(a.alloc_frame_id()));
        assert!(seen.insert(b.alloc_frame_id()));
    }
}

#[test]
fn ack_note_rides_on_next_ack_and_is_delivered() {
    let mut rx = mk(1);
    let mut sender = mk(0);
    let f = data(&mut sender, Dest::Unicast(NodeId::new(1)), 5);
    // Receiver sees the data frame; upper layer primes a note during
    // the Deliver (before the SIFS-delayed ACK is built).
    let a1 = collect(|out| rx.frame_arrived_into(f, t(0), out));
    assert!(a1.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
    rx.prime_ack_note(NodeId::new(0), 77u32);
    let a2 = fire(&mut rx, &a1, t(10));
    let ack = a2
        .iter()
        .find_map(|a| match a {
            MacAction::StartTx { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("ack goes out");
    assert_eq!(ack.kind, FrameKind::Ack(f.id));
    assert_eq!(ack.payload, 77, "note rides on the ACK");
    let _ = collect(|out| rx.tx_ended_into(t(122), out)); // the ACK leaves the air
                                                          // The original sender (waiting for this ACK) both completes its
                                                          // frame AND sees the note delivered upward.
    let e1 = collect(|out| sender.enqueue_into(f, t(100), out)); // reconstruct WaitAck state
    let e2 = fire(&mut sender, &e1, t(150));
    assert!(has_tx(&e2));
    let _ = collect(|out| sender.tx_ended_into(t(566), out));
    let out = collect(|out| sender.frame_arrived_into(ack, t(700), out));
    assert!(out.iter().any(|a| matches!(a, MacAction::TxDone { .. })));
    assert!(
        out.iter()
            .any(|a| matches!(a, MacAction::Deliver { frame } if frame.payload == 77)),
        "non-default ACK payloads are delivered to the upper layer"
    );
    // A second ACK to the same peer carries no stale note.
    let f2 = Frame {
        id: FrameId::new((1u64 << 40) | 999),
        src: NodeId::new(0),
        dest: Dest::Unicast(NodeId::new(1)),
        kind: FrameKind::Data,
        bytes: 52,
        payload: 1u32,
    };
    let b1 = collect(|out| rx.frame_arrived_into(f2, t(2000), out));
    let b2 = fire(&mut rx, &b1, t(2010));
    let ack2 = b2
        .iter()
        .find_map(|a| match a {
            MacAction::StartTx { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("second ack");
    assert_eq!(ack2.payload, 0, "note is one-shot");
}

#[test]
#[should_panic(expected = "data frames")]
fn enqueue_rejects_acks() {
    let mut mac = mk(0);
    let ack = Frame {
        id: FrameId::new(1),
        src: NodeId::new(0),
        dest: Dest::Unicast(NodeId::new(1)),
        kind: FrameKind::Ack(FrameId::new(0)),
        bytes: ACK_BYTES,
        payload: 0u32,
    };
    let _ = collect(|out| mac.enqueue_into(ack, t(0), out));
}
