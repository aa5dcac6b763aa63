//! Sharding and the host thread pool of the windowed engine.
//!
//! The windowed engine (see `machine.rs` and DESIGN.md §3.8, §3.12)
//! splits the machine's cores into *shards* and advances each shard on a
//! host worker thread. Three pieces live here:
//!
//! * [`ShardPlan`] — the topology→shard mapping. Shards are always
//!   **chip-granular**: the two cores of an XS1-L2A package (nodes `2p`
//!   and `2p+1`) are never split across shards, so a package's internal
//!   links join cores whose windows are planned together. The
//!   [`ShardPlan::affinity`] constructor additionally deals packages in
//!   *slice-major* order, so each shard's packages sit inside as few
//!   slices as possible and shard boundaries land on the slow
//!   inter-slice FFC cables, so cores that talk to each other share a
//!   shard and the shards carry even shares of a slice-local workload.
//! * [`EpochPool`] — a persistent pool of worker threads. Spawning
//!   threads per window would cost more than a short window simulates,
//!   so workers park on a condvar between jobs.
//! * The **pairwise watermark negotiation** ([`EpochPool::run_negotiated`])
//!   — a null-message-style protocol. Instead of a global barrier per
//!   short epoch, the control thread publishes *one* job covering a whole
//!   serial window (typically the 1 µs power-monitor cadence), and the
//!   shards advance through it in lock-free *rounds*: each round a shard
//!   reads the watermarks its peers published for the previous round,
//!   computes its private horizon `min over peers p of (W_p + L)` from
//!   the machine's one lookahead `L` (the fastest link's token time),
//!   runs its own cores to that horizon, and publishes its new
//!   watermark. Workers stay hot (spin, then yield) and only park once
//!   per window; the condvar is paid once per window instead of once per
//!   round.
//!
//! # Why the protocol is deterministic
//!
//! Every cross-thread read is of a *round slot* `(shard, round)` that is
//! written exactly once, so the values a shard consumes are a pure
//! function of the simulation state, never of host timing. A shard's
//! horizon sequence is identical run after run at a given thread count;
//! the horizons decide where a core's run stops, never what it adds to
//! its ledger (every idle edge is charged with lock-step's additions),
//! so results equal lock-step's at every thread count.
//! Emission stops propagate through the same slots: a shard that stops
//! (own emission, or a peer's stop flag) publishes its stop flag into the
//! next round slot, so every waiter observes it at a deterministic round
//! boundary. A peer whose horizon contribution `W_p + L` has moved
//! past the window bound can never constrain this shard again (watermarks
//! are monotone), so it is *cleared* and neither read nor waited on — an
//! idle peer clears in the first round.
//!
//! # Live cores
//!
//! A busy 480-core machine may have only a few dozen cores with work, and
//! a shard runs ~30 rounds per window, so each shard first collects the
//! cores of its runs that are not [`Core::is_quiescent`] into a buffer it
//! reuses across windows, and every round's run and watermark loops walk
//! only that list. Skipping the others is exact. A core quiescent when
//! the window opens (halted, or every thread blocked on external input)
//! can only be woken by a token, and none arrives inside a window: the
//! fabric is idle on entry and any emission stops the window. So
//! [`Core::run_epoch`] on it would return at once without touching it,
//! and its watermark is `u64::MAX`, the identity of the minimum. A live
//! core that halts or blocks partway through stays on the list and
//! reports `u64::MAX` itself. Horizons, round counts and the `drained`
//! verdict are therefore those of a pass over every core. The machine's
//! parked cores are quiescent too, so a window opens without waking them.
//!
//! # Why the protocol is safe
//!
//! A token emitted by shard `p` during round `k` is emitted no earlier
//! than `W_p(k-1)` (the watermark is a lower bound on the shard's next
//! action) and lands on another core no earlier than `W_p(k-1) + L`:
//! every hop costs at least its link's token time (`3·Ts + Tt` link-clock
//! cycles, §V.C), and `L` is the smallest over all links. Shard `s` ran
//! round `k` only to `H_s(k) ≤ W_p(k-1) + L`, so no core ever runs past
//! an instant at which a token could have reached it. Cleared peers
//! satisfy the same bound with the window end in place of `H_s`. Token
//! times never change and a link going down only lengthens paths, so `L`
//! holds across every fault and reroute.
//!
//! # Observability under sharding
//!
//! Each core owns its `Tracer` (see `swallow_sim::trace`), so a core's
//! trace ring travels with the core onto whatever shard thread runs its
//! window — no shared sink, no lock, no cross-thread ordering to get
//! wrong. Per-core insertion order is deterministic because each core's
//! evolution inside a window is; `Machine::collect_trace` then merges
//! rings in fixed node order and stable-sorts by time, so the merged log
//! is bit-identical run after run at every thread count (pinned by
//! `tests/differential_trace.rs`).
//!
//! # Safety
//!
//! Each job the control thread publishes a raw pointer to the machine's
//! core array, runs shard 0 itself, and blocks until every worker reports
//! done. Workers index the array only through their own shard's disjoint
//! node runs, so no two threads ever touch the same `Core`, and the
//! control thread touches only shard 0's runs while workers are running.
//! This is the entire unsafe surface of the crate and it is contained in
//! this module.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use swallow_sim::{Time, TimeDelta};
use swallow_xcore::Core;

use crate::topology::GridSpec;

/// Cores per XS1-L2A package; shard boundaries never cut a package.
const CORES_PER_CHIP: usize = 2;

/// Maximum watermark rounds per negotiated window. A busy shard covers a
/// 1 µs monitor window in ~30 rounds (one on-chip token time plus one
/// core period of progress per round is guaranteed); the cap only exists
/// to bound the round-slot arrays and to terminate degenerate windows —
/// an exhausted negotiation commits what it reached and the next advance
/// starts a fresh one, so the cap affects performance, never results.
const MAX_ROUNDS: usize = 1024;

/// The topology→shard mapping: which node-id runs each host worker
/// advances.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Per shard, in shard order: disjoint contiguous `[start, end)`
    /// node-id runs, each chip-aligned, ascending within the shard.
    /// Together the runs of all shards cover `0..cores` exactly once.
    runs: Vec<Vec<(usize, usize)>>,
}

impl ShardPlan {
    /// Plans `threads` shards over `cores` cores (chip-granular), dealing
    /// packages in raw index order — each shard is one contiguous range.
    /// The effective shard count is capped at the package count; passing
    /// `threads == 0` asks for one shard per available host CPU.
    #[cfg(test)]
    pub fn new(cores: usize, threads: usize) -> Self {
        let chips = cores.div_ceil(CORES_PER_CHIP).max(1);
        let order: Vec<usize> = (0..chips).collect();
        Self::from_chip_order(&order, cores, threads)
    }

    /// Plans `threads` shards over `spec`'s cores with communication
    /// affinity: packages are dealt in slice-major order (see
    /// [`GridSpec::packages_slice_major`]), so each shard's packages sit
    /// inside as few slices as possible and the cross-shard boundaries
    /// coincide with the slow inter-slice FFC cables: cores that talk to
    /// each other share a shard, and a per-slice placement (such as
    /// `compute-480`'s busy half of every slice) splits evenly across
    /// shards. Horizons do not depend on the plan. On a single slice
    /// this degenerates to dealing packages in index order. The plan is
    /// a deterministic function of `(spec, threads)`.
    pub fn affinity(spec: GridSpec, threads: usize) -> Self {
        let order = spec.packages_slice_major();
        Self::from_chip_order(&order, spec.core_count(), threads)
    }

    /// Deals the packages of `order` to shards in contiguous blocks, as
    /// evenly as possible (first shards one package heavier), then turns
    /// each shard's package set into sorted merged node runs.
    fn from_chip_order(order: &[usize], cores: usize, threads: usize) -> Self {
        let chips = order.len().max(1);
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let shards = threads.min(chips).max(1);
        let per = chips / shards;
        let extra = chips % shards;
        let mut runs = Vec::with_capacity(shards);
        let mut next = 0usize;
        for s in 0..shards {
            let take = per + usize::from(s < extra);
            let mut chip_block: Vec<usize> = order[next..next + take].to_vec();
            next += take;
            chip_block.sort_unstable();
            let mut shard_runs: Vec<(usize, usize)> = Vec::new();
            for chip in chip_block {
                let lo = chip * CORES_PER_CHIP;
                let hi = ((chip + 1) * CORES_PER_CHIP).min(cores);
                if lo >= hi {
                    continue;
                }
                match shard_runs.last_mut() {
                    Some(last) if last.1 == lo => last.1 = hi,
                    _ => shard_runs.push((lo, hi)),
                }
            }
            runs.push(shard_runs);
        }
        ShardPlan { runs }
    }

    /// Number of shards (== worker threads in the pool).
    pub fn shard_count(&self) -> usize {
        self.runs.len()
    }

    /// The `[start, end)` node-id runs of one shard.
    pub fn runs(&self, shard: usize) -> &[(usize, usize)] {
        &self.runs[shard]
    }

    /// Number of cores in one shard.
    pub fn len(&self, shard: usize) -> usize {
        self.runs[shard].iter().map(|&(lo, hi)| hi - lo).sum()
    }
}

/// A raw pointer to the core array, made `Send` so a job can cross into
/// the workers. Safety rests on the disjoint-runs protocol documented at
/// module level.
#[derive(Clone, Copy)]
struct CoresPtr(*mut Core);
unsafe impl Send for CoresPtr {}

/// Inputs of one negotiated window, shared with every shard runner.
#[derive(Clone, Copy)]
struct NegJob {
    /// End of the window (grid-aligned): the instant the control thread
    /// must process serially (power monitor, deadline, pre-fault edge).
    serial_bound_ps: u64,
    /// Machine `now` at job start — the anchor of the base clock grid.
    anchor_ps: u64,
    /// Base clock period (grid pitch).
    period_ps: u64,
    /// Earliest a token can land on another core after its emission, ps.
    lookahead_ps: u64,
}

/// One pairwise-negotiated window (see module docs) over the core array.
#[derive(Clone, Copy)]
struct Job {
    cores: CoresPtr,
    len: usize,
    neg: NegJob,
}

struct Ctrl {
    /// Job sequence number; bumped to wake the workers.
    seq: u64,
    /// Workers still running the current job.
    remaining: usize,
    job: Option<Job>,
    /// First worker panic of the job: (shard id, panic payload). The
    /// control thread re-raises it with the shard attached so a
    /// differential failure names the shard that died.
    panicked: Option<(usize, Box<dyn std::any::Any + Send>)>,
    quit: bool,
}

/// Round slot encoding: one `AtomicU64` per `(shard, round)`, written
/// exactly once per job. Zero means "not yet published".
const SLOT_PUBLISHED: u64 = 1 << 63;
/// The publishing shard stopped (own emission, a peer's stop, or round
/// exhaustion): consumers must not run any further round.
const SLOT_STOPPED: u64 = 1 << 62;
/// Watermark payload mask; `u64::MAX` watermarks (halted / unscheduled)
/// saturate here, far beyond any reachable simulated instant.
const SLOT_WATERMARK: u64 = SLOT_STOPPED - 1;

/// The lock-free round board of the negotiation: `(shard, round)` slots
/// plus per-shard results, all preallocated so a window allocates
/// nothing on the workers.
struct Board {
    /// `shards * (MAX_ROUNDS + 1)` slots.
    slots: Vec<AtomicU64>,
    /// Per shard: the last horizon it ran to (ps).
    result_h: Vec<AtomicU64>,
    /// Per shard: the final watermark it published (ps, saturated).
    result_w: Vec<AtomicU64>,
    /// Per shard: `emitted << 63 | highest published round`.
    result_flags: Vec<AtomicU64>,
}

impl Board {
    fn new(shards: usize) -> Self {
        Board {
            slots: (0..shards * (MAX_ROUNDS + 1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            result_h: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            result_w: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            result_flags: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slot(&self, shard: usize, round: usize) -> &AtomicU64 {
        &self.slots[shard * (MAX_ROUNDS + 1) + round]
    }

    fn publish(&self, shard: usize, round: usize, watermark_ps: u64, stopped: bool) {
        let mut v = SLOT_PUBLISHED | watermark_ps.min(SLOT_WATERMARK);
        if stopped {
            v |= SLOT_STOPPED;
        }
        self.slot(shard, round).store(v, Ordering::Release);
    }

    /// Blocks (spin, then yield) until `(shard, round)` is published and
    /// returns `(watermark_ps, stopped)`. Deterministic: the slot has
    /// exactly one writer and one value, whenever it lands.
    fn wait_slot(&self, shard: usize, round: usize) -> (u64, bool) {
        let slot = self.slot(shard, round);
        let mut spins = 0u32;
        loop {
            let v = slot.load(Ordering::Acquire);
            if v & SLOT_PUBLISHED != 0 {
                return (v & SLOT_WATERMARK, v & SLOT_STOPPED != 0);
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                // Oversubscribed (or single-CPU) hosts must let the peer
                // actually run; a pure spin would deadlock-by-starvation.
                std::thread::yield_now();
            }
        }
    }

    fn set_result(
        &self,
        shard: usize,
        last_h_ps: u64,
        final_w_ps: u64,
        emitted: bool,
        max_round: usize,
    ) {
        self.result_h[shard].store(last_h_ps, Ordering::Release);
        self.result_w[shard].store(final_w_ps, Ordering::Release);
        let flags = ((emitted as u64) << 63) | max_round as u64;
        self.result_flags[shard].store(flags, Ordering::Release);
    }

    /// Clears the slots a finished job used so the next job starts from
    /// an all-unpublished board. Called by the control thread only.
    fn reset(&self, shard: usize, max_round: usize) {
        for round in 0..=max_round.min(MAX_ROUNDS) {
            self.slot(shard, round).store(0, Ordering::Relaxed);
        }
    }
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    start: Condvar,
    done: Condvar,
    board: Board,
}

/// Outcome of one negotiated window.
#[derive(Clone, Copy, Debug)]
pub struct NegotiationOutcome {
    /// The earliest horizon any shard committed to (grid-aligned,
    /// strictly after the window's start): every core has simulated at
    /// least this far, no core has passed an instant a token could have
    /// reached it at, and all pending arrivals lie at or beyond it. The
    /// machine's new safe commit time.
    pub target: Time,
    /// True when some core emitted during the window: the shards stopped
    /// early and the caller must reconcile the emission instants
    /// serially before processing `target`.
    pub emitted: bool,
    /// True when every shard's *final* watermark was saturated: each
    /// core ended the window halted or blocked on external input with no
    /// scheduled wake. With `emitted == false` the machine has gone
    /// quiescent *inside* the window — the caller should commit the last
    /// transition edge (the max of the cores' frozen local clocks), not
    /// `target`, to land on the same quiescence instant as the serial
    /// engines.
    pub drained: bool,
    /// Watermark rounds run, summed over shards (observability).
    pub rounds: u64,
}

/// Parameters of one negotiated window (control-thread side).
pub struct NegotiationParams {
    /// Grid-aligned end of the window; shards never run past it.
    pub serial_bound: Time,
    /// Machine `now`: the base-clock grid anchor.
    pub anchor: Time,
    /// Base clock period.
    pub period: TimeDelta,
    /// The earliest a token can land on another core after it is sent:
    /// the smallest token time over the fabric's links.
    pub lookahead: TimeDelta,
}

/// One shard's per-window buffers, sized once and reused so a window
/// allocates nothing.
struct ShardScratch {
    /// The shard's live cores of the current window.
    live: Vec<usize>,
    /// Per shard: cleared from the current window's negotiation.
    cleared: Vec<bool>,
}

impl ShardScratch {
    fn new(cores: usize, shards: usize) -> Self {
        ShardScratch {
            live: Vec::with_capacity(cores),
            cleared: vec![false; shards],
        }
    }
}

/// A persistent pool of window workers. Shard 0 always runs inline on the
/// control thread — it is idle while the workers run anyway, and on a
/// single shard this makes the engine entirely thread-free — so the pool
/// spawns `shards - 1` workers for shards `1..shards`.
pub struct EpochPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    shards: usize,
    /// Shard 0's runs, run inline.
    inline_runs: Vec<(usize, usize)>,
    /// Shard 0's buffers (each worker keeps its own).
    inline_scratch: ShardScratch,
}

impl EpochPool {
    /// Spawns one worker per shard of `plan` beyond the first.
    pub fn new(plan: &ShardPlan) -> Self {
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                seq: 0,
                remaining: 0,
                job: None,
                panicked: None,
                quit: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            board: Board::new(plan.shard_count()),
        });
        let shards = plan.shard_count();
        let handles = (1..shards)
            .map(|s| {
                let shared = Arc::clone(&shared);
                let runs = plan.runs(s).to_vec();
                let scratch = ShardScratch::new(plan.len(s), shards);
                std::thread::Builder::new()
                    .name(format!("swallow-shard-{s}"))
                    .spawn(move || worker(&shared, s, &runs, scratch))
                    .expect("spawn window worker")
            })
            .collect();
        EpochPool {
            shared,
            handles,
            shards,
            inline_runs: plan.runs(0).to_vec(),
            inline_scratch: ShardScratch::new(plan.len(0), shards),
        }
    }

    /// Publishes a job and wakes the workers. No-op for a single shard.
    fn dispatch(&self, cores: &mut [Core], neg: NegJob) {
        if self.shards == 1 {
            return;
        }
        let mut g = self.shared.ctrl.lock().expect("pool lock");
        g.job = Some(Job {
            cores: CoresPtr(cores.as_mut_ptr()),
            len: cores.len(),
            neg,
        });
        g.remaining = self.shards - 1;
        g.seq += 1;
        drop(g);
        self.shared.start.notify_all();
    }

    /// Blocks until every worker finished the current job, re-raising a
    /// worker panic (with its shard id attached) on the calling thread.
    fn join(&self) {
        if self.shards == 1 {
            return;
        }
        let mut g = self.shared.ctrl.lock().expect("pool lock");
        while g.remaining > 0 {
            g = self.shared.done.wait(g).expect("pool lock");
        }
        g.job = None;
        if let Some((shard, payload)) = g.panicked.take() {
            drop(g);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            match msg {
                Some(msg) => panic!("shard {shard} worker panicked: {msg}"),
                None => std::panic::resume_unwind(payload),
            }
        }
    }

    /// Runs one pairwise-negotiated window over all shards (see module
    /// docs for the protocol) and reports how far it safely committed.
    /// On return every core has run to its shard's last horizon (all of
    /// them at least to `outcome.target`, which is `serial_bound` itself
    /// when nothing emitted), or stopped at its emission instant with
    /// output pending.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic on the calling thread, naming the shard.
    pub fn run_negotiated(
        &mut self,
        cores: &mut [Core],
        params: &NegotiationParams,
    ) -> NegotiationOutcome {
        let job = NegJob {
            serial_bound_ps: params.serial_bound.as_ps(),
            anchor_ps: params.anchor.as_ps(),
            period_ps: params.period.as_ps(),
            lookahead_ps: params.lookahead.as_ps(),
        };
        self.dispatch(cores, job);
        // SAFETY: shard 0's runs are disjoint from every worker's.
        unsafe {
            negotiate_shard(
                &job,
                CoresPtr(cores.as_mut_ptr()),
                cores.len(),
                0,
                &self.inline_runs,
                &mut self.inline_scratch,
                &self.shared.board,
            );
        }
        self.join();
        let board = &self.shared.board;
        let mut target = u64::MAX;
        let mut emitted = false;
        let mut drained = true;
        let mut rounds = 0u64;
        for s in 0..self.shards {
            target = target.min(board.result_h[s].load(Ordering::Acquire));
            drained &= board.result_w[s].load(Ordering::Acquire) >= SLOT_WATERMARK;
            let flags = board.result_flags[s].load(Ordering::Acquire);
            emitted |= flags >> 63 != 0;
            let max_round = (flags & (u64::MAX >> 1)) as usize;
            rounds += max_round as u64;
            board.reset(s, max_round);
        }
        NegotiationOutcome {
            target: Time::from_ps(target),
            emitted,
            drained,
            rounds,
        }
    }
}

impl Drop for EpochPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.ctrl.lock().expect("pool lock");
            g.quit = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// First grid instant at or below `x` (clamped to the anchor).
fn align_down_ps(x: u64, anchor: u64, period: u64) -> u64 {
    if x <= anchor {
        anchor
    } else {
        anchor + (x - anchor) / period * period
    }
}

/// One shard's side of the negotiation protocol (module docs): collects
/// the shard's live cores into `scratch.live`, publishes the round-0
/// watermark, then loops rounds of read-peers → compute horizon → run
/// live cores → publish, until the window bound, an emission (own or a
/// peer's), or round exhaustion.
///
/// # Safety
///
/// `runs` must be disjoint from every range any other thread accesses
/// through `cores` for the duration of the call, and inside
/// `[0, len)` of a live `Core` array.
unsafe fn negotiate_shard(
    job: &NegJob,
    cores: CoresPtr,
    len: usize,
    shard: usize,
    runs: &[(usize, usize)],
    scratch: &mut ShardScratch,
    board: &Board,
) {
    let ShardScratch { live, cleared } = scratch;
    // Only the cores that are not quiescent now can do anything in this
    // window (module docs, "Live cores"); every round visits just them.
    live.clear();
    for &(lo, hi) in runs {
        debug_assert!(hi <= len, "shard run outside the core array");
        for i in lo..hi.min(len) {
            // SAFETY: disjoint-runs protocol (function contract).
            if !unsafe { &*cores.0.add(i) }.is_quiescent() {
                live.push(i);
            }
        }
    }
    let live = &live[..];
    let watermark = || -> u64 {
        live.iter().fold(u64::MAX, |w, &i| {
            w.min(unsafe { &*cores.0.add(i) }.watermark_ps())
        })
    };
    let sb = job.serial_bound_ps;
    let mut last_w = watermark();
    board.publish(shard, 0, last_w, false);
    cleared.fill(false);
    let mut last_h = job.anchor_ps;
    let mut emitted = false;
    let mut max_round = 0usize;
    for round in 1..=MAX_ROUNDS {
        // Horizon for this round from the previous round's watermarks.
        // Own watermark is read locally; peers' come from their slots
        // (blocking until published — deterministic, see module docs).
        let mut h = sb;
        let mut peer_stopped = false;
        for (p, cleared_p) in cleared.iter_mut().enumerate() {
            if *cleared_p {
                continue;
            }
            let (w, stopped) = if p == shard {
                (last_w, false)
            } else {
                board.wait_slot(p, round - 1)
            };
            if stopped {
                peer_stopped = true;
                break;
            }
            let arrival = w.saturating_add(job.lookahead_ps);
            if arrival >= sb {
                // Monotone watermarks: once a peer cannot reach us
                // inside the window it never can again — stop reading
                // (and stop waiting on) it.
                *cleared_p = true;
                continue;
            }
            h = h.min(align_down_ps(arrival, job.anchor_ps, job.period_ps));
        }
        if peer_stopped {
            // Do not run this round; propagate the stop so transitive
            // waiters (who may have cleared the original stopper) see it.
            board.publish(shard, round, last_w, true);
            max_round = round;
            break;
        }
        if h > last_h {
            let until = Time::from_ps(h);
            for &i in live {
                // SAFETY: disjoint-runs protocol (function contract).
                let core = unsafe { &mut *cores.0.add(i) };
                if !core.has_tx_pending() && core.run_epoch(until) {
                    emitted = true;
                }
            }
            last_h = h;
            last_w = watermark();
        }
        board.publish(shard, round, last_w, emitted);
        max_round = round;
        if emitted || h >= sb {
            break;
        }
    }
    board.set_result(shard, last_h, last_w, emitted, max_round);
}

fn worker(shared: &Shared, shard: usize, runs: &[(usize, usize)], mut scratch: ShardScratch) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut g = shared.ctrl.lock().expect("pool lock");
            loop {
                if g.quit {
                    return;
                }
                if g.seq != seen {
                    seen = g.seq;
                    break g.job.expect("job published with sequence bump");
                }
                g = shared.start.wait(g).expect("pool lock");
            }
        };
        // SAFETY: `runs` is this worker's disjoint node set; the control
        // thread is blocked until `remaining` hits zero.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            negotiate_shard(
                &job.neg,
                job.cores,
                job.len,
                shard,
                runs,
                &mut scratch,
                &shared.board,
            );
        }));
        let mut g = shared.ctrl.lock().expect("pool lock");
        if let Err(payload) = outcome {
            if g.panicked.is_none() {
                g.panicked = Some((shard, payload));
            }
            // A panicked negotiation may leave peers waiting on this
            // shard's next slot forever: publish stop flags so every
            // waiter unblocks before the control thread re-raises.
            for round in 0..=MAX_ROUNDS {
                let slot = shared.board.slot(shard, round);
                if slot.load(Ordering::Relaxed) & SLOT_PUBLISHED == 0 {
                    shared.board.publish(shard, round, 0, true);
                }
            }
            shared
                .board
                .set_result(shard, u64::MAX, 0, false, MAX_ROUNDS);
        }
        g.remaining -= 1;
        if g.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_sim::TimeDelta;
    use swallow_xcore::CoreConfig;

    #[allow(clippy::needless_range_loop)] // Marking and asserting per node reads better indexed.
    fn flat_cover(plan: &ShardPlan, cores: usize) {
        let mut covered = vec![false; cores];
        for s in 0..plan.shard_count() {
            for &(lo, hi) in plan.runs(s) {
                assert_eq!(lo % 2, 0, "shard must not split a package");
                assert_eq!(hi % 2, if hi == cores { hi % 2 } else { 0 });
                assert!(hi > lo);
                for n in lo..hi {
                    assert!(!covered[n], "node {n} covered twice");
                    covered[n] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "plan must cover every node");
    }

    #[test]
    fn plan_is_chip_aligned_and_covering() {
        for cores in [16usize, 32, 96, 480] {
            for threads in [1usize, 2, 3, 4, 7, 8, 64] {
                let plan = ShardPlan::new(cores, threads);
                assert!(plan.shard_count() <= threads.max(1));
                assert!(plan.shard_count() <= cores.div_ceil(2));
                flat_cover(&plan, cores);
                let last = plan.shard_count() - 1;
                assert_eq!(plan.runs(0)[0].0, 0);
                assert_eq!(plan.runs(last).last().map(|r| r.1), Some(cores));
            }
        }
    }

    #[test]
    fn plan_balances_within_one_chip() {
        let plan = ShardPlan::new(480, 7);
        let sizes: Vec<usize> = (0..plan.shard_count()).map(|s| plan.len(s)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= CORES_PER_CHIP, "{sizes:?}");
    }

    #[test]
    fn affinity_plan_matches_plain_on_one_slice() {
        let plan_a = ShardPlan::affinity(GridSpec::ONE_SLICE, 3);
        let plan_p = ShardPlan::new(16, 3);
        for s in 0..plan_a.shard_count() {
            assert_eq!(plan_a.runs(s), plan_p.runs(s));
        }
    }

    #[test]
    fn affinity_plan_keeps_slices_whole() {
        // 2×1 grid, two shards: each shard must own exactly one slice
        // (the boundary between them is the inter-slice FFC cable).
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 1,
        };
        let plan = ShardPlan::affinity(spec, 2);
        assert_eq!(plan.shard_count(), 2);
        flat_cover(&plan, 32);
        for s in 0..2 {
            for &(lo, hi) in plan.runs(s) {
                for node in lo..hi {
                    let slice = spec.slice_of(swallow_isa::NodeId(node as u16));
                    assert_eq!(slice, s, "node {node} must shard with its slice");
                }
            }
        }
    }

    /// Runs one window from time zero to `bound` with a `lookahead`.
    fn window(
        pool: &mut EpochPool,
        cores: &mut [Core],
        bound: Time,
        lookahead: TimeDelta,
    ) -> NegotiationOutcome {
        pool.run_negotiated(
            cores,
            &NegotiationParams {
                serial_bound: bound,
                anchor: Time::ZERO,
                period: TimeDelta::from_ps(2000),
                lookahead,
            },
        )
    }

    #[test]
    fn pool_advances_busy_cores_and_freezes_blocked_ones() {
        let busy = swallow_isa::Assembler::new()
            .assemble("ldc r0, 40\nlp: sub r0, r0, 1\n bt r0, lp\n freet")
            .expect("assembles");
        let mut cores: Vec<Core> = (0..8)
            .map(|n| Core::new(CoreConfig::swallow(swallow_isa::NodeId(n))))
            .collect();
        for core in &mut cores[..4] {
            core.load_program(&busy).expect("fits");
        }
        let plan = ShardPlan::new(cores.len(), 3);
        let mut pool = EpochPool::new(&plan);
        let bound = Time::ZERO + TimeDelta::from_us(1);
        let outcome = window(&mut pool, &mut cores, bound, TimeDelta::from_ns(32));
        assert!(!outcome.emitted);
        for core in &cores[..4] {
            // Busy cores run to their halt edge inside the window.
            assert!(core.local_now() > Time::ZERO);
            assert!(core.local_now() <= bound);
            assert!(core.is_quiescent());
            assert!(core.ledger().total().as_joules() > 0.0);
        }
        for core in &cores[4..] {
            // Unprogrammed cores are blocked on external input: the window
            // freezes them at their transition edge (here, time zero) so
            // the engine can observe the machine's quiescence instant.
            // The machine charges their idle span when it commits.
            assert_eq!(core.local_now(), Time::ZERO);
            assert_eq!(core.ledger().total().as_joules(), 0.0);
        }
        // A second window reuses the same workers and is a clean no-op on
        // the drained machine.
        let outcome = window(
            &mut pool,
            &mut cores,
            bound + TimeDelta::from_us(1),
            TimeDelta::from_ns(32),
        );
        assert!(outcome.drained);
        assert!(cores.iter().all(|c| c.local_now() <= bound));
    }

    #[test]
    fn negotiation_reports_a_drained_machine() {
        // Unloaded cores have no scheduled activity: every watermark is
        // infinite, all peers clear in round 1, each shard's horizon jumps
        // straight to the serial bound, and the window reports the
        // machine drained (cores stay frozen; the machine commits the
        // quiescence instant instead of the bound).
        let mut cores: Vec<Core> = (0..8)
            .map(|n| Core::new(CoreConfig::swallow(swallow_isa::NodeId(n))))
            .collect();
        let plan = ShardPlan::new(cores.len(), 4);
        let mut pool = EpochPool::new(&plan);
        let shards = plan.shard_count();
        let bound = Time::ZERO + TimeDelta::from_us(1);
        let outcome = window(&mut pool, &mut cores, bound, TimeDelta::from_ns(32));
        assert_eq!(outcome.target, bound);
        assert!(!outcome.emitted);
        assert!(outcome.drained, "all-blocked machine must report drained");
        assert!(outcome.rounds >= shards as u64, "every shard runs a round");
        for core in &cores {
            assert_eq!(core.local_now(), Time::ZERO, "blocked cores freeze");
        }
        // Back-to-back windows reuse the board (slots were reset).
        let bound2 = Time::ZERO + TimeDelta::from_us(2);
        let outcome2 = window(&mut pool, &mut cores, bound2, TimeDelta::from_ns(32));
        assert_eq!(outcome2.target, bound2);
        assert!(outcome2.drained);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn worker_panic_is_reraised_with_its_shard_id() {
        let plan = ShardPlan::new(8, 2); // shard 1 owns nodes 4..8
        let mut pool = EpochPool::new(&plan);
        // Hand the pool fewer cores than the plan covers: shard 1's run
        // trips its bounds debug_assert on the worker thread, and the
        // control thread must re-raise it naming the shard.
        let mut cores: Vec<Core> = (0..4)
            .map(|n| Core::new(CoreConfig::swallow(swallow_isa::NodeId(n))))
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            window(
                &mut pool,
                &mut cores,
                Time::ZERO + TimeDelta::from_ns(50),
                TimeDelta::from_ns(32),
            );
        }));
        let payload = result.expect_err("worker bounds assert must re-raise");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-raised payload carries the message");
        assert!(msg.contains("shard 1"), "panic must name the shard: {msg}");
    }
}
