//! Open- and closed-loop request drivers over a fixed set of lanes
//! (connections or client threads).
//!
//! Every lane takes the next request from one shared counter, so a due
//! request goes to whichever lane is free first. A slow request holds up
//! only its own lane; requests that fall due meanwhile run on the others.
//! Each completion records four instants, as offsets from the run epoch:
//! when the request was due, when a lane picked it up, when it was sent and
//! when it completed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Debug)]
pub struct Done<R> {
    pub index: usize,
    pub due: Duration,
    pub picked: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub value: R,
}

impl<R> Done<R> {
    /// Due-to-completion latency in ms: queueing and generator lateness
    /// included.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }

    /// Send time minus due time, in ms.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }

    /// Send-to-completion (round-trip) time in ms.
    pub fn round_trip_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.sent))
    }

    /// Time the due request waited for a free lane, in ms.
    pub fn conn_wait_ms(&self) -> f64 {
        ms(self.picked.saturating_sub(self.due))
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `n` requests open-loop: request `i` is sent at `due(i)` after the
/// epoch (or as soon as a lane frees up, if every lane is busy then),
/// whatever happened to earlier requests. Results come back in index
/// order.
pub fn run_open<L, R>(
    lanes: &mut [L],
    n: usize,
    due: impl Fn(usize) -> Duration + Sync,
    serve: impl Fn(&mut L, usize) -> R + Sync,
) -> Vec<Done<R>>
where
    L: Send,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        for lane in lanes.iter_mut() {
            let (next, out, due, serve) = (&next, &out, &due, &serve);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= n {
                        break;
                    }
                    let due = due(index);
                    let picked = epoch.elapsed();
                    if picked < due {
                        std::thread::sleep(due - picked);
                    }
                    let sent = epoch.elapsed();
                    let value = serve(lane, index);
                    let done = epoch.elapsed();
                    mine.push(Done {
                        index,
                        due,
                        picked,
                        sent,
                        done,
                        value,
                    });
                }
                out.lock().expect("driver result lock").extend(mine);
            });
        }
    });
    let mut out = out.into_inner().expect("driver result lock");
    out.sort_by_key(|d| d.index);
    out
}

/// Runs `n` requests closed-loop: each lane sends its next request as soon
/// as its previous one returns. A request is due when its lane picks it up.
/// The amount of work is fixed, not the time, so a faster program finishes
/// sooner but leaves behind the same state. Returns the completions in
/// index order and the wall time until the last lane finished.
pub fn run_closed<L, R>(
    lanes: &mut [L],
    n: usize,
    serve: impl Fn(&mut L, usize) -> R + Sync,
) -> (Vec<Done<R>>, Duration)
where
    L: Send,
    R: Send,
{
    let epoch = Instant::now();
    let out = run_open(lanes, n, |_| Duration::ZERO, serve);
    (out, epoch.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request 0 takes 50 ms on one lane; requests 1–3 fall due at 5, 10
    /// and 15 ms and must run on the idle lane without waiting for it. A
    /// driver that split the schedule into contiguous per-lane chunks would
    /// queue request 1 behind request 0.
    #[test]
    fn a_slow_request_does_not_delay_requests_due_on_the_idle_lane() {
        let dues = [0u64, 5, 10, 15].map(Duration::from_millis);
        let done = run_open(
            &mut [(), ()],
            dues.len(),
            |i| dues[i],
            |_, i| std::thread::sleep(Duration::from_millis(if i == 0 { 50 } else { 1 })),
        );
        assert_eq!(done.len(), 4);
        assert!(done[0].latency_ms() >= 50.0);
        for d in &done[1..] {
            assert!(
                d.latency_ms() < 25.0,
                "request {} waited behind the slow one: {:.1} ms",
                d.index,
                d.latency_ms()
            );
            assert!(d.conn_wait_ms() < 25.0);
            // Lateness is measured (sleep overshoot), never negative.
            assert!(d.late_ms() >= 0.0 && d.late_ms() < 25.0);
        }
    }

    #[test]
    fn closed_loop_keeps_every_lane_busy() {
        let (done, wall) = run_closed(&mut [(), ()], 16, |_, _| {
            std::thread::sleep(Duration::from_millis(5))
        });
        let indices: Vec<usize> = done.iter().map(|d| d.index).collect();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
        // Both lanes work at once: the first two requests overlap.
        assert!(done[1].sent < done[0].done && done[0].sent < done[1].done);
        assert!(wall >= Duration::from_millis(40));
    }
}
