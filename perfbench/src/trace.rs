//! In-memory wall-clock spans recorded around calls into the program's layers.
//!
//! A span opens when a wrapper (see `hooks`) calls into a layer and closes
//! when the call returns, so spans on one thread nest strictly: a child lies
//! inside its parent. Each span's self time is its duration minus the time
//! its children covered. Totals are kept per span name, and each thread's
//! busy time (time inside a root span) in fixed-width bins; the spans
//! themselves stay in memory, up to [`MAX_SPANS`], until the run ends and
//! writes them out.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept for the written trace; later ones only enter the totals and
/// busy bins.
pub const MAX_SPANS: usize = 50_000;
/// Width of the busy-time bins: an interval's edges are resolved to within
/// one bin, spread evenly over it.
pub const BIN_NS: u64 = 250_000;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Unique id.
    pub id: u64,
    /// Id of the enclosing span on the same thread.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `tensor.loss_grad`.
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u32,
    /// Round id passed to `local_train` by this span or an ancestor.
    pub round: Option<u64>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage).
    pub self_ns: u64,
    /// Summed duration of the spans that had no parent.
    pub root_ns: u64,
}

/// Everything recorded since the last [`take`].
#[derive(Debug, Default)]
pub struct Recording {
    /// Totals by span name.
    pub totals: BTreeMap<&'static str, Totals>,
    /// Counts added with [`count`].
    pub counts: BTreeMap<&'static str, u64>,
    /// The first [`MAX_SPANS`] spans to close.
    pub spans: Vec<SpanRecord>,
    /// Spans recorded only in totals and busy bins.
    pub dropped: u64,
    /// Per thread, ns inside root spans in each [`BIN_NS`]-wide bin since
    /// the epoch.
    pub busy: BTreeMap<u32, Vec<u64>>,
}

impl Recording {
    /// Totals of one span name (zero when it never closed).
    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Value of one count (zero when never added).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every root span.
    pub fn root_busy_ns(&self) -> u64 {
        self.totals.values().map(|t| t.root_ns).sum()
    }

    /// Adds the root span `[start_ns, end_ns)` on `thread` to its bins.
    fn add_busy(&mut self, thread: u32, start_ns: u64, end_ns: u64) {
        let bins = self.busy.entry(thread).or_default();
        let last = (end_ns.saturating_sub(1) / BIN_NS) as usize;
        if bins.len() <= last {
            bins.resize(last + 1, 0);
        }
        let mut at = start_ns;
        while at < end_ns {
            let bin_end = (at / BIN_NS + 1) * BIN_NS;
            let upto = bin_end.min(end_ns);
            bins[(at / BIN_NS) as usize] += upto - at;
            at = upto;
        }
    }

    /// `thread`'s busy time inside `[from, to)`; a partly covered bin counts
    /// in proportion to the part covered.
    fn busy_in(&self, thread: u32, from: u64, to: u64) -> u64 {
        let Some(bins) = self.busy.get(&thread) else {
            return 0;
        };
        let mut total = 0.0;
        let mut at = from;
        while at < to {
            let b = (at / BIN_NS) as usize;
            let bin_end = (b as u64 + 1) * BIN_NS;
            let upto = bin_end.min(to);
            let busy = bins.get(b).copied().unwrap_or(0) as f64;
            total += busy * (upto - at) as f64 / BIN_NS as f64;
            at = upto;
        }
        total.round() as u64
    }

    /// Time inside `[from, to)` that root spans cover on the runner thread
    /// plus on the busiest other thread: the part of an interval the
    /// program's traced compute explains. Clients of one round train in
    /// parallel, so only the slowest client thread counts toward the round's
    /// critical path.
    pub fn attributed_ns(&self, runner: u32, from: u64, to: u64) -> u64 {
        let on_runner = self.busy_in(runner, from, to);
        let slowest_other = self
            .busy
            .keys()
            .filter(|&&t| t != runner)
            .map(|&t| self.busy_in(t, from, to))
            .max()
            .unwrap_or(0);
        (on_runner + slowest_other).min(to.saturating_sub(from))
    }
}

static RECORDING: Mutex<Recording> = Mutex::new(Recording {
    totals: BTreeMap::new(),
    counts: BTreeMap::new(),
    spans: Vec::new(),
    dropped: 0,
    busy: BTreeMap::new(),
});
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    round: Option<u64>,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn lock() -> std::sync::MutexGuard<'static, Recording> {
    // a panicking course is a recorded failure, not a reason to lose the
    // spans of every other course: each update below leaves the recording
    // consistent, so a poisoned guard is safe to reuse
    RECORDING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The instant span times are measured from.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the epoch to `t`.
pub fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Closes its span when dropped, also when the traced call unwinds.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    // spans close on the thread that opened them
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        exit();
    }
}

/// Opens a span on this thread. `round` is inherited from the enclosing span
/// when `None`.
pub fn enter(name: &'static str, round: Option<u64>) -> Guard {
    epoch();
    let start = Instant::now();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|p| (p.id, p.round));
        s.push(Open {
            id,
            parent: parent.map(|p| p.0),
            name,
            round: round.or(parent.and_then(|p| p.1)),
            start,
            child_ns: 0,
        });
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

/// Self time of a span of `dur_ns` whose children covered `child_ns`.
/// Children nest inside their parent, so coverage never exceeds the
/// duration; the saturation keeps a clock anomaly from turning negative.
pub fn self_time(dur_ns: u64, child_ns: u64) -> u64 {
    dur_ns.saturating_sub(child_ns)
}

fn exit() {
    let end = Instant::now();
    let thread = THREAD.with(|t| *t);
    let (open, is_root, dur_ns) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let open = s.pop().expect("every guard closes a span it opened");
        let dur_ns = end.saturating_duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = s.last_mut() {
            parent.child_ns += dur_ns;
        }
        (open, s.is_empty(), dur_ns)
    });
    let start_ns = since_epoch(open.start);
    let record = SpanRecord {
        id: open.id,
        parent: open.parent,
        name: open.name,
        thread,
        round: open.round,
        start_ns,
        end_ns: start_ns + dur_ns,
    };
    let mut rec = lock();
    let totals = rec.totals.entry(open.name).or_default();
    totals.calls += 1;
    totals.total_ns += dur_ns;
    totals.self_ns += self_time(dur_ns, open.child_ns);
    if is_root {
        totals.root_ns += dur_ns;
        rec.add_busy(thread, record.start_ns, record.end_ns);
    }
    if rec.spans.len() < MAX_SPANS {
        rec.spans.push(record);
    } else {
        rec.dropped += 1;
    }
}

/// Runs `f` inside a span.
pub fn span<R>(name: &'static str, round: Option<u64>, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name, round);
    f()
}

/// Adds `delta` to a named count.
pub fn count(name: &'static str, delta: u64) {
    *lock().counts.entry(name).or_insert(0) += delta;
}

/// Returns everything recorded so far and starts a fresh recording.
pub fn take() -> Recording {
    std::mem::take(&mut *lock())
}

/// This thread's number in span records.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // the recorder is process-global; tests that read it take turns
    static SERIAL: TestMutex<()> = TestMutex::new(());

    fn busy(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_time(10, 4), 6);
        assert_eq!(self_time(10, 10), 0);
        assert_eq!(self_time(10, 11), 0);
        assert_eq!(self_time(0, u64::MAX), 0);
    }

    #[test]
    fn children_nest_inside_parents_and_self_times_add_up() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        take();
        span("t.root", Some(7), || {
            busy(10_000);
            span("t.a", None, || {
                busy(10_000);
                span("t.a.inner", None, || busy(10_000));
            });
            span("t.b", None, || busy(10_000));
        });
        let rec = take();
        let all: Vec<&SpanRecord> = rec.spans.iter().collect();
        assert_eq!(all.len(), 4);
        let root = *all.iter().find(|s| s.parent.is_none()).expect("one root");
        assert_eq!(root.name, "t.root");
        for s in &all {
            // every span inherits the round and lies inside its parent
            assert_eq!(s.round, Some(7), "{}", s.name);
            if let Some(pid) = s.parent {
                let p = all.iter().find(|x| x.id == pid).expect("parent recorded");
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}",
                    s.name
                );
            }
        }
        // self times partition the root's duration exactly
        let self_sum: u64 = ["t.root", "t.a", "t.a.inner", "t.b"]
            .iter()
            .map(|n| rec.get(n).self_ns)
            .sum();
        assert_eq!(self_sum, (root.end_ns - root.start_ns));
        assert_eq!(rec.get("t.root").root_ns, (root.end_ns - root.start_ns));
        assert_eq!(rec.get("t.a").root_ns, 0);
        let a = rec.get("t.a");
        assert_eq!(a.self_ns + rec.get("t.a.inner").total_ns, a.total_ns);
        // only the root span's time is busy time, and all of it lands in bins
        assert_eq!(rec.root_busy_ns(), (root.end_ns - root.start_ns));
        let binned: u64 = rec.busy.values().flatten().sum();
        assert_eq!(binned, (root.end_ns - root.start_ns));
    }

    #[test]
    fn a_span_closes_when_its_call_unwinds() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        take();
        let r = std::panic::catch_unwind(|| {
            span("t.outer", None, || {
                span("t.panics", None, || panic!("boom"));
            })
        });
        assert!(r.is_err());
        span("t.after", None, || ());
        let rec = take();
        // the unwound spans closed in order, leaving the stack empty
        let after = rec
            .spans
            .iter()
            .find(|s| s.name == "t.after")
            .expect("recorded");
        assert_eq!(after.parent, None);
        assert_eq!(rec.get("t.panics").calls, 1);
        assert_eq!(rec.get("t.outer").calls, 1);
    }

    #[test]
    fn attribution_counts_the_runner_and_the_slowest_other_thread() {
        const B: u64 = BIN_NS;
        let mut rec = Recording::default();
        rec.add_busy(0, 0, 10 * B);
        rec.add_busy(1, 10 * B, 60 * B);
        rec.add_busy(2, 10 * B, 40 * B);
        rec.add_busy(0, 90 * B, 120 * B);
        // clipped to [0, 100 bins): runner 10 + 10, slowest other thread 50
        assert_eq!(rec.attributed_ns(0, 0, 100 * B), 70 * B);
        // clipped to [50, 95): client 1 gives 10, runner 5
        assert_eq!(rec.attributed_ns(0, 50 * B, 95 * B), 15 * B);
        // a partly covered bin counts in proportion: half of bin 9
        assert_eq!(rec.attributed_ns(0, 9 * B + B / 2, 10 * B), B / 2);
        // never more than the interval
        let mut dense = Recording::default();
        dense.add_busy(0, 0, 100 * B);
        dense.add_busy(1, 0, 100 * B);
        assert_eq!(dense.attributed_ns(0, 0, 100 * B), 100 * B);
        assert_eq!(Recording::default().attributed_ns(0, 0, 100 * B), 0);
    }

    #[test]
    fn busy_bins_split_a_span_at_bin_edges() {
        let mut rec = Recording::default();
        rec.add_busy(3, BIN_NS / 2, 2 * BIN_NS + 10);
        assert_eq!(rec.busy[&3], vec![BIN_NS / 2, BIN_NS, 10]);
        rec.add_busy(3, 2 * BIN_NS + 10, 2 * BIN_NS + 30);
        assert_eq!(rec.busy[&3][2], 30);
    }
}
