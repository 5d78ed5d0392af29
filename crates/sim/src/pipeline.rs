//! The cycle loop: fetch → decode/rename/steer → wakeup+select → execute →
//! bypass → commit (paper Figure 1 / Figure 11).
//!
//! The simulator is trace-driven: functional outcomes come from the
//! emulator, so no wrong-path instructions are modeled — a mispredicted
//! branch simply stalls fetch until it resolves, which charges the same
//! refill penalty the paper's SimpleScalar-derived simulator charges.
//!
//! ## Timing model
//!
//! * An instruction issued at cycle `T` produces its result at `T + 1`
//!   (single-cycle symmetric FUs, Table 3); a same-cluster dependent can
//!   issue at `T + 1` (one-cycle local bypass).
//! * A dependent in *another* cluster can issue at `T + 1 +
//!   intercluster_extra` (the Section 5.5 two-cycle inter-cluster bypass).
//! * Loads add a D-cache access: data at `T + 2` on a hit, `T + 2 +
//!   miss_penalty` on a miss; store-to-load forwarding behaves like a hit.
//! * A result reaches the (local) register file `regwrite_delay` cycles
//!   after production; consumers that issue before that moment used a
//!   bypass path, and if the producer ran in another cluster, an
//!   *inter-cluster* bypass — the Figure 17 (bottom) statistic.

use crate::attribution::StallCause;
use crate::bpred::Gshare;
use crate::check::{Checker, Violation};
use crate::config::{ConfigError, SelectionPolicy, SimConfig};
use crate::dcache::{Access, Dcache};
use crate::fault::FaultKind;
use crate::probe::{DispatchStallCause, ProbeEvent, ProbeSink, ScheduleRecorder};
use crate::rename::{Preg, RenameTable};
use crate::scheduler::{Candidate, InsertReject, Scheduler};
use crate::stats::SimStats;
use ce_core::{FifoId, InstId};
use ce_isa::OperationKind;
use ce_workloads::{DynInst, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Completion event queue: `(finish_cycle, seq)` pushed at issue, drained
/// in the complete phase — replaces a full ROB scan every cycle.
type EventHeap = BinaryHeap<Reverse<(u64, u64)>>;

/// Why a simulation run stopped without producing statistics — the
/// catchable form of what [`Simulator::run`] panics with, so sweep
/// drivers can report one bad cell and keep the fleet running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The invariant checker recorded violations
    /// ([`SimConfig::check`](crate::config::SimConfig::check) was on).
    Checker {
        /// Cycle at which the run aborted.
        cycle: u64,
        /// Everything the checker recorded, in detection order.
        violations: Vec<Violation>,
    },
    /// The machine stopped making forward progress (a simulator bug, or
    /// an injected fault wedging the issue logic).
    Deadlock {
        /// Cycle at which the deadlock limit tripped.
        cycle: u64,
        /// Instructions committed before progress stopped.
        committed: u64,
        /// Instructions in the trace.
        total: u64,
        /// ROB occupancy at the limit.
        rob: usize,
        /// Front-end queue occupancy at the limit.
        frontq: usize,
    },
    /// The wall-clock deadline set via [`Simulator::set_deadline`]
    /// expired mid-run.
    DeadlineExceeded {
        /// Cycle at which the deadline was noticed.
        cycle: u64,
    },
}

impl SimError {
    /// Short stable category name (error taxonomies, campaign reports).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Checker { .. } => "checker-violation",
            SimError::Deadlock { .. } => "deadlock",
            SimError::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Checker { cycle, violations } => {
                let report = crate::check::report_violations(violations, *cycle)
                    .unwrap_or_else(|| "invariant checker: empty violation list".into());
                f.write_str(&report)
            }
            SimError::Deadlock { cycle, committed, total, rob, frontq } => write!(
                f,
                "deadlock at cycle {cycle}: committed {committed}/{total}, rob {rob}, \
                 frontq {frontq}"
            ),
            SimError::DeadlineExceeded { cycle } => {
                write!(f, "wall-clock deadline exceeded at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// State of one physical register's value.
#[derive(Debug, Clone, Copy)]
struct PregInfo {
    /// First cycle the value is available from its producer's FU outputs
    /// (`u64::MAX` while the producer has not issued).
    ready: u64,
    /// Cluster that produces the value; `None` means it was already in the
    /// register file before the producer question arises (program start).
    cluster: Option<usize>,
}

/// One in-flight instruction (ROB entry).
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    d: DynInst,
    srcs: [Option<Preg>; 2],
    dest: Option<Preg>,
    prev_dest: Option<Preg>,
    cluster: Option<usize>,
    dispatched_at: u64,
    issued_at: Option<u64>,
    finish_at: Option<u64>,
    done: bool,
    mispredicted: bool,
    used_intercluster: bool,
    wrong_path: bool,
}

/// The slice of an in-flight instruction the issue scan actually reads,
/// packed into a dense ring keyed by `seq & hot_mask` (the same
/// contiguity argument as the scheduler's placement ring). The wakeup
/// loop probes every waiting candidate every cycle; reading 16 bytes from
/// a dense array instead of a ~100-byte ROB entry keeps that scan in
/// cache. Written once at dispatch, read-only afterwards; the full ROB
/// entry is touched only when a candidate actually issues.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    srcs: [Option<Preg>; 2],
    kind: OperationKind,
    mem_addr: Option<u32>,
}

impl HotEntry {
    const EMPTY: HotEntry =
        HotEntry { srcs: [None, None], kind: OperationKind::Other, mem_addr: None };
}

/// One in-flight store, mirrored out of the ROB so the memory-ordering
/// checks a load performs at issue scan only the stores, not the whole
/// window.
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    seq: u64,
    /// Word-aligned target address (`None` if unknown — never for stores
    /// from the trace, which always carry addresses).
    word: Option<u32>,
    issued: bool,
    done: bool,
}

/// The in-flight stores in program order (sequence numbers ascending),
/// kept in lockstep with the ROB: pushed at dispatch, flagged at issue and
/// completion, popped at commit or squash.
#[derive(Debug, Default)]
struct StoreTracker {
    recs: VecDeque<StoreRec>,
}

impl StoreTracker {
    fn on_dispatch(&mut self, d: &DynInst) {
        if d.inst.opcode.kind() == OperationKind::Store {
            self.recs.push_back(StoreRec {
                seq: d.seq,
                word: d.mem_addr.map(|a| a & !3),
                issued: false,
                done: false,
            });
        }
    }

    fn find_mut(&mut self, seq: u64) -> Option<&mut StoreRec> {
        let i = self.recs.partition_point(|r| r.seq < seq);
        self.recs.get_mut(i).filter(|r| r.seq == seq)
    }

    fn mark_issued(&mut self, seq: u64) {
        if let Some(r) = self.find_mut(seq) {
            r.issued = true;
        }
    }

    fn mark_done(&mut self, seq: u64) {
        if let Some(r) = self.find_mut(seq) {
            r.done = true;
        }
    }

    fn on_commit(&mut self, seq: u64) {
        debug_assert_eq!(self.recs.front().map(|r| r.seq), Some(seq));
        self.recs.pop_front();
    }

    fn on_squash(&mut self, branch_seq: u64) {
        // Wrong-path slices synthesize only loads and ALU ops, so this is
        // a safety net rather than a hot path.
        while self.recs.back().map(|r| r.seq > branch_seq).unwrap_or(false) {
            self.recs.pop_back();
        }
    }

    /// Whether a load may issue under the configured ordering rule, given
    /// the stores older than it (same predicate per rule as a full ROB
    /// scan, over just the stores).
    fn load_may_issue(
        &self,
        load_seq: u64,
        load_word: Option<u32>,
        rule: crate::config::MemDisambiguation,
    ) -> bool {
        use crate::config::MemDisambiguation as M;
        let older = self.recs.partition_point(|r| r.seq < load_seq);
        self.recs.iter().take(older).all(|r| match rule {
            // Table 3: older stores need only have computed their
            // addresses, i.e. issued.
            M::AddressesKnown => r.issued,
            M::AllStoresComplete => r.done,
            M::Oracle => r.word != load_word || r.issued,
        })
    }

    /// The youngest older store writing the same word, if any
    /// (store-to-load forwarding).
    fn forwarding_store(&self, load_seq: u64, load_word: Option<u32>) -> Option<u64> {
        let addr = load_word?;
        let older = self.recs.partition_point(|r| r.seq < load_seq);
        self.recs
            .iter()
            .take(older)
            .rev()
            .find(|r| r.word == Some(addr))
            .map(|r| r.seq)
    }
}

/// An instruction waiting in the front end (fetched, not yet dispatched).
#[derive(Debug, Clone, Copy)]
struct FrontEndSlot {
    payload: SlotPayload,
    ready_at: u64,
    mispredicted: bool,
}

/// What a front-end slot carries: a real trace instruction or a
/// synthesized wrong-path one.
#[derive(Debug, Clone, Copy)]
enum SlotPayload {
    /// Index into the trace.
    Real(usize),
    /// A fabricated wrong-path instruction.
    WrongPath(DynInst),
}

impl SlotPayload {
    fn is_wrong_path(&self) -> bool {
        matches!(self, SlotPayload::WrongPath(_))
    }
}

/// Front-end state snapshot taken just before the issue pass — the
/// stall-attribution accountant's background causes come from here (why
/// is the window starved: mispredict refill, front-end latency, or a
/// genuinely drained program?).
#[derive(Debug, Clone, Copy)]
struct FrontState {
    /// Fetch is stalled on an unresolved mispredicted branch.
    fetch_stalled: bool,
    /// Fetched instructions are waiting in the front end.
    frontq_nonempty: bool,
}

/// The cause an issue slot falls to when no rejected candidate explains
/// it: the window simply held too little work, and the front end says why.
fn background_cause(front: FrontState) -> StallCause {
    if front.fetch_stalled {
        StallCause::MispredictRecovery
    } else if front.frontq_nonempty {
        StallCause::DispatchStall
    } else {
        StallCause::EmptyWindow
    }
}

/// Per-instruction schedule record produced by [`Simulator::run_traced`] —
/// enough to reconstruct a cycle-by-cycle pipeline diagram (the paper's
/// Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRecord {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u32,
    /// Cycle the instruction entered the scheduler.
    pub dispatched_at: u64,
    /// Cycle the instruction was selected and began execution.
    pub issued_at: u64,
    /// Cycle its result became available.
    pub completed_at: u64,
    /// Execution cluster.
    pub cluster: usize,
}

/// The timing simulator.
///
/// Construct one per run with [`Simulator::new`], then [`run`](Self::run)
/// a trace to completion.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    bpred: Gshare,
    dcache: Dcache,
    rename: RenameTable,
    sched: Scheduler,
    pregs: Vec<PregInfo>,
    hot: Vec<HotEntry>,
    hot_mask: u64,
    stats: SimStats,
    check: Checker,
    /// Attached probe sinks (none by default — the hot loop's only
    /// disabled-case cost is one emptiness check per emission point).
    probes: Vec<Box<dyn ProbeSink>>,
    /// Wall-clock cutoff for the run (none by default); polled every
    /// 4096 cycles by the cycle loop.
    deadline: Option<Instant>,
    /// Tag-broadcast wakeup bookkeeping, rings keyed `seq & hot_mask` like
    /// the [`HotEntry`] ring. `wake_pending[h]` counts source operands
    /// whose producers have not issued; `wake_min_ready[h]` is a lower
    /// bound (over all clusters) on the cycle the operands could be ready;
    /// `wake_token[h]` stamps which dispatch owns the ring slot, so a
    /// producer's broadcast ignores waiters registered by a squashed
    /// wrong-path instruction whose sequence number was later reused.
    wake_pending: Vec<u8>,
    wake_min_ready: Vec<u64>,
    wake_token: Vec<u64>,
    /// Per-physical-register waiter lists: `(seq, token)` of dispatched
    /// instructions whose operand `p` is still unproduced. Drained by
    /// [`broadcast_ready`](Self::broadcast_ready) when the producer
    /// issues — the software analogue of the paper's tag broadcast, which
    /// is what lets the select loop skip *asleep* entries. Every
    /// organization keeps this bookkeeping except the head-only FIFOs,
    /// whose few heads are cheaper to probe than to track.
    waiters: Vec<Vec<(u64, u64)>>,
    /// Monotone dispatch counter backing `wake_token`.
    dispatch_count: u64,
    /// Per-phase wall-clock accumulator (`None` unless profiling was
    /// requested — the disabled-case cost is an `is_some` check per
    /// phase boundary, like the probe emptiness check).
    profile: Option<PhaseProfile>,
    /// Sampled simulation: commit-count watermarks bounding the measured
    /// region. When `committed` crosses `measure_start` / `measure_end`,
    /// the cycle is recorded in the corresponding mark. Measuring an
    /// *interior* region (a cooldown follows the measured window) keeps
    /// the end-of-slice pipeline drain — cycles a continuous run would
    /// overlap with later work — out of the measurement. `u64::MAX` when
    /// unused: two compares per commit.
    measure_start: u64,
    measure_end: u64,
    measure_mark_start: Option<u64>,
    measure_mark_end: Option<u64>,
}

/// Wall-clock cost of each pipeline phase over a profiled run — what
/// `cesim --profile` prints. Phases follow the paper's Figure 1 stage
/// names; "wakeup" is candidate generation ahead of selection and
/// "select" the per-candidate readiness/resource arbitration loop. The
/// windows' oldest-first ring scan yields candidates inside that loop, so
/// its time counts as select.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// In-order retirement of finished ROB heads.
    pub commit: Duration,
    /// Result completion (event-heap drain) and wrong-path squash.
    pub execute: Duration,
    /// Candidate lists built before selection: FIFO heads, and the
    /// position and youngest-first orders.
    pub wakeup: Duration,
    /// Selection and issue of the generated candidates.
    pub select: Duration,
    /// Rename, steer, and insertion into the issue structure.
    pub dispatch: Duration,
    /// Fetch, branch prediction, and wrong-path synthesis.
    pub fetch: Duration,
}

impl PhaseProfile {
    /// Total instrumented time across all phases.
    pub fn total(&self) -> Duration {
        self.commit + self.execute + self.wakeup + self.select + self.dispatch + self.fetch
    }

    /// The phases in pipeline order with display names.
    pub fn rows(&self) -> [(&'static str, Duration); 6] {
        [
            ("fetch", self.fetch),
            ("dispatch", self.dispatch),
            ("wakeup", self.wakeup),
            ("select", self.select),
            ("execute", self.execute),
            ("commit", self.commit),
        ]
    }
}

/// Advances a profiling timestamp, returning the elapsed span (zero when
/// profiling is off and `mark` is `None`).
#[inline]
fn lap(mark: &mut Option<Instant>) -> Duration {
    match mark {
        Some(m) => {
            let now = Instant::now();
            let d = now - *m;
            *m = now;
            d
        }
        None => Duration::ZERO,
    }
}

impl Simulator {
    /// Creates a simulator for a machine configuration, or reports why the
    /// configuration is unusable — the non-aborting entry point for sweep
    /// drivers, which want to flag one bad grid cell and keep running the
    /// rest.
    ///
    /// # Errors
    ///
    /// Returns the first constraint [`SimConfig::validate`] rejects.
    pub fn try_new(cfg: SimConfig) -> Result<Simulator, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        Ok(Simulator {
            cfg,
            bpred: Gshare::new(cfg.bpred),
            dcache: Dcache::new(cfg.dcache),
            rename: RenameTable::new(cfg.physical_regs),
            sched: Scheduler::new(cfg.scheduler, cfg.clusters, cfg.steering, cfg.max_inflight),
            pregs: vec![PregInfo { ready: 0, cluster: None }; cfg.physical_regs],
            hot: vec![HotEntry::EMPTY; cfg.max_inflight.max(1).next_power_of_two()],
            hot_mask: cfg.max_inflight.max(1).next_power_of_two() as u64 - 1,
            stats: SimStats::default(),
            check: Checker::new(),
            probes: Vec::new(),
            deadline: None,
            wake_pending: vec![0; cfg.max_inflight.max(1).next_power_of_two()],
            wake_min_ready: vec![0; cfg.max_inflight.max(1).next_power_of_two()],
            wake_token: vec![0; cfg.max_inflight.max(1).next_power_of_two()],
            waiters: vec![Vec::new(); cfg.physical_regs],
            dispatch_count: 0,
            profile: None,
            measure_start: u64::MAX,
            measure_end: u64::MAX,
            measure_mark_start: None,
            measure_mark_end: None,
        })
    }

    /// Creates a simulator for a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`]; use
    /// [`try_new`](Self::try_new) to handle that case gracefully.
    pub fn new(cfg: SimConfig) -> Simulator {
        match Simulator::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Attaches a probe sink: it observes every pipeline event of the
    /// coming run and gets a [`ProbeSink::finish`] call with the final
    /// statistics. Attach before [`run`](Self::run); sinks never affect
    /// timing.
    pub fn attach_probe(&mut self, sink: Box<dyn ProbeSink>) {
        self.probes.push(sink);
    }

    /// Whether any probe sink is attached (the emission-point guard; with
    /// no sinks, events are never even constructed).
    #[inline]
    fn probes_on(&self) -> bool {
        !self.probes.is_empty()
    }

    /// Delivers one event to every attached sink.
    fn emit(&mut self, ev: ProbeEvent) {
        for p in &mut self.probes {
            p.event(&ev);
        }
    }

    /// Fires every sink's end-of-run hook with the final statistics.
    fn finish_probes(&mut self) {
        // Detach while iterating so sinks can read `self.stats` without a
        // split borrow of the simulator.
        let mut probes = std::mem::take(&mut self.probes);
        for p in &mut probes {
            p.finish(&self.stats);
        }
        self.probes = probes;
    }

    /// Arms a wall-clock deadline for the coming run: once `limit` has
    /// elapsed the cycle loop stops (checked every 4096 cycles) and
    /// [`try_run`](Self::try_run) returns
    /// [`SimError::DeadlineExceeded`]. The sweep runner uses this to
    /// bound a wedged or pathologically slow cell without killing the
    /// worker thread.
    pub fn set_deadline(&mut self, limit: Duration) {
        self.deadline = Some(Instant::now() + limit);
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks or the invariant checker records
    /// a violation (a bug in the simulator, surfaced rather than
    /// hidden); use [`try_run`](Self::try_run) to handle those without
    /// unwinding.
    pub fn run(self, trace: &Trace) -> SimStats {
        match self.try_run(trace) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the trace to completion, reporting deadlocks, checker
    /// violations, and expired deadlines as values instead of panics —
    /// the entry point for fault-tolerant sweep drivers.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that stopped the run.
    pub fn try_run(mut self, trace: &Trace) -> Result<SimStats, SimError> {
        self.run_core(trace.as_slice())
    }

    /// Runs the trace with per-phase wall-clock profiling enabled,
    /// returning the statistics and the phase breakdown (`cesim
    /// --profile`). Off this path the instrumentation costs one `is_some`
    /// check per phase boundary.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that stopped the run.
    pub fn try_run_profiled(
        mut self,
        trace: &Trace,
    ) -> Result<(SimStats, PhaseProfile), SimError> {
        self.profile = Some(PhaseProfile::default());
        let stats = self.run_core(trace.as_slice())?;
        Ok((stats, self.profile.expect("enabled above")))
    }

    /// Replaces the cold branch predictor and D-cache with warmed copies —
    /// the state a sampled-simulation driver carried through its
    /// functional fast-forward. The copies must have been built from this
    /// simulator's own configuration (same geometry).
    pub fn warm_start(&mut self, bpred: Gshare, dcache: Dcache) {
        self.bpred = bpred;
        self.dcache = dcache;
    }

    /// Consumes the simulator, handing back the (now further-warmed)
    /// predictor and cache for the next fast-forward leg.
    pub(crate) fn into_warm_state(self) -> (Gshare, Dcache) {
        (self.bpred, self.dcache)
    }

    /// Arms the measurement region for sampled runs: record the cycle at
    /// which `start` instructions have committed (warmup done) and the
    /// cycle at which `end` have (measured window done; cooldown follows).
    pub(crate) fn set_measure_window(&mut self, start: u64, end: u64) {
        if start == 0 {
            // No warmup: the measurement starts at cycle zero.
            self.measure_mark_start = Some(0);
            self.measure_start = u64::MAX;
        } else {
            self.measure_start = start;
        }
        self.measure_end = end;
    }

    /// The cycles the measurement boundaries were crossed, if they were.
    pub(crate) fn measure_marks(&self) -> (Option<u64>, Option<u64>) {
        (self.measure_mark_start, self.measure_mark_end)
    }

    /// Runs a raw instruction slice (a sampled-simulation window) to
    /// completion. Identical to [`try_run`](Self::try_run) modulo the
    /// input type; sequence numbers need not start at zero.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that stopped the run.
    pub(crate) fn run_slice(&mut self, insts: &[DynInst]) -> Result<SimStats, SimError> {
        self.run_core(insts)
    }

    /// Runs the trace, returning both the statistics and a per-instruction
    /// schedule (dispatch/issue/complete cycles and cluster), in commit
    /// order — the raw material for pipeline diagrams. A convenience over
    /// attaching a [`ScheduleRecorder`] probe by hand.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks or the checker records a
    /// violation; use [`try_run_traced`](Self::try_run_traced) to handle
    /// those without unwinding.
    pub fn run_traced(self, trace: &Trace) -> (SimStats, Vec<IssueRecord>) {
        match self.try_run_traced(trace) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// The non-panicking form of [`run_traced`](Self::run_traced).
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that stopped the run.
    pub fn try_run_traced(mut self, trace: &Trace) -> Result<(SimStats, Vec<IssueRecord>), SimError> {
        let (recorder, handle) = ScheduleRecorder::new(trace.as_slice().len());
        self.attach_probe(Box::new(recorder));
        let stats = self.run_core(trace.as_slice())?;
        drop(self); // releases the recorder's clone of the handle
        let schedule = match Rc::try_unwrap(handle) {
            Ok(cell) => cell.into_inner(),
            Err(_) => unreachable!("the recorder was dropped with the simulator"),
        };
        Ok((stats, schedule))
    }

    /// The cycle loop shared by [`try_run`](Self::try_run) and
    /// [`try_run_traced`](Self::try_run_traced).
    fn run_core(&mut self, insts: &[DynInst]) -> Result<SimStats, SimError> {
        if insts.is_empty() {
            self.finish_probes();
            return Ok(self.stats.clone());
        }

        let mut rob: VecDeque<Entry> = VecDeque::with_capacity(self.cfg.max_inflight);
        let mut frontq: VecDeque<FrontEndSlot> = VecDeque::new();
        let mut stores = StoreTracker::default();
        let mut events: EventHeap = BinaryHeap::with_capacity(self.cfg.max_inflight);
        // Issue-loop scratch, reused every cycle (no per-cycle allocation).
        let mut cand_buf: Vec<Candidate> = Vec::with_capacity(self.cfg.max_inflight);
        let mut fu_used: Vec<usize> = vec![0; self.cfg.clusters];
        // Rejection causes recorded this cycle (attribution only).
        let mut rejects: Vec<StallCause> = Vec::with_capacity(self.cfg.max_inflight);
        let mut fetch_index = 0usize;
        // Sequence number of an unresolved mispredicted branch, if any.
        let mut fetch_stalled_on: Option<u64> = None;
        // Next synthetic sequence number and PC for wrong-path fetch.
        let mut wrong_seq: u64 = 0;
        let mut wrong_pc: u32 = 0;
        let mut wrong_reg: u8 = 8;
        // Wrong-path loads walk ahead of the most recent real data address,
        // polluting the cache the way real wrong-path slices do.
        let mut recent_mem_addr: u32 = ce_isa::DATA_BASE;
        let mut wrong_mem_offset: u32 = 0;
        let mut cycle: u64 = 0;
        let mut committed = 0usize;
        let deadlock_limit = 1_000 + 60 * insts.len() as u64;

        let profiling = self.profile.is_some();
        while committed < insts.len() {
            let mut mark = if profiling { Some(Instant::now()) } else { None };
            cycle += 1;
            if cycle >= deadlock_limit {
                self.finish_probes();
                return Err(SimError::Deadlock {
                    cycle,
                    committed: committed as u64,
                    total: insts.len() as u64,
                    rob: rob.len(),
                    frontq: frontq.len(),
                });
            }
            // The deadline poll sits off the per-cycle fast path: one
            // branch normally, a clock read every 1024 cycles when armed.
            if cycle & 0x3ff == 0 {
                if let Some(d) = self.deadline {
                    if Instant::now() >= d {
                        self.finish_probes();
                        return Err(SimError::DeadlineExceeded { cycle });
                    }
                }
            }
            if let Some(f) = self.cfg.fault {
                if f.kind == FaultKind::PanicCell && cycle == f.at_cycle {
                    panic!("injected fault: deliberate cell panic at cycle {cycle}");
                }
            }

            // ---- commit ------------------------------------------------
            for _ in 0..self.cfg.retire_width {
                match rob.front() {
                    Some(e) if e.done => {
                        let e = rob.pop_front().expect("checked");
                        if let Some(prev) = e.prev_dest {
                            self.rename.release(prev);
                        }
                        if e.d.inst.opcode.kind() == OperationKind::Store {
                            stores.on_commit(e.seq);
                        }
                        if self.cfg.check {
                            self.check_commit(cycle, &e);
                        }
                        self.note_commit(&e);
                        if self.probes_on() {
                            self.emit(ProbeEvent::Commit {
                                cycle,
                                seq: e.seq,
                                pc: e.d.pc,
                                dispatched_at: e.dispatched_at,
                                issued_at: e.issued_at.expect("committed implies issued"),
                                completed_at: e.finish_at.expect("committed implies finished"),
                                cluster: e.cluster.unwrap_or(0),
                            });
                        }
                        committed += 1;
                        if committed as u64 == self.measure_start {
                            self.measure_mark_start = Some(cycle);
                        }
                        if committed as u64 == self.measure_end {
                            self.measure_mark_end = Some(cycle);
                        }
                    }
                    _ => break,
                }
            }
            if let Some(p) = &mut self.profile {
                p.commit += lap(&mut mark);
            }

            // ---- complete (results produced this cycle) -----------------
            // Drain the event heap instead of scanning the ROB: every
            // `finish_at` assignment pushed an event, so the heap's head
            // covers everything finishing now. Events for squashed
            // wrong-path work can alias a live entry's sequence number;
            // the exact-match guards below make such stale events inert.
            let mut resolved_branch: Option<u64> = None;
            while let Some(&Reverse((finish, seq))) = events.peek() {
                if finish > cycle {
                    break;
                }
                events.pop();
                let Some(front_seq) = rob.front().map(|e| e.seq) else { continue };
                let Some(off) = seq.checked_sub(front_seq) else { continue };
                let idx = off as usize;
                if idx >= rob.len() {
                    continue;
                }
                let e = &mut rob[idx];
                debug_assert_eq!(e.seq, seq, "ROB sequence numbers are contiguous");
                if e.done || e.finish_at != Some(cycle) {
                    continue; // stale event (squashed then seq reused)
                }
                e.done = true;
                if e.d.inst.opcode.kind() == OperationKind::Store {
                    stores.mark_done(seq);
                }
                if e.mispredicted && fetch_stalled_on == Some(seq) {
                    fetch_stalled_on = None; // redirect: fetch resumes
                    resolved_branch = Some(seq);
                }
                if self.probes_on() {
                    self.emit(ProbeEvent::Complete { cycle, seq });
                }
            }
            // Squash everything fetched past a resolved mispredicted
            // branch — with wrong-path modeling those are the synthetic
            // instructions polluting the machine.
            if let Some(branch_seq) = resolved_branch {
                while rob.back().map(|e| e.seq > branch_seq).unwrap_or(false) {
                    let e = rob.pop_back().expect("checked");
                    debug_assert!(e.wrong_path, "only wrong-path work follows the branch");
                    if e.issued_at.is_none() {
                        // Tail-side removal: in the head-only FIFO
                        // organizations the squashed instruction is the
                        // *youngest* in its FIFO, not the head, so the
                        // issue-path `remove` (which pops heads) is wrong
                        // here.
                        self.sched.remove_squashed(InstId(e.seq));
                    }
                    if self.probes_on() {
                        self.emit(ProbeEvent::Squash {
                            cycle,
                            seq: e.seq,
                            branch_seq,
                            issued: e.issued_at.is_some(),
                        });
                    }
                }
                if self.probes_on() {
                    // Wrong-path work still in the front end is squashed
                    // too — report it before it vanishes.
                    for slot in frontq.iter() {
                        if let SlotPayload::WrongPath(d) = slot.payload {
                            self.emit(ProbeEvent::Squash {
                                cycle,
                                seq: d.seq,
                                branch_seq,
                                issued: false,
                            });
                        }
                    }
                }
                frontq.retain(|slot| !slot.payload.is_wrong_path());
                stores.on_squash(branch_seq);
            }

            if let Some(p) = &mut self.profile {
                p.execute += lap(&mut mark);
            }

            // ---- wakeup + select + execute ------------------------------
            let front = FrontState {
                fetch_stalled: fetch_stalled_on.is_some(),
                frontq_nonempty: !frontq.is_empty(),
            };
            self.issue_cycle(
                cycle, &mut rob, &mut stores, &mut events, &mut cand_buf, &mut fu_used,
                &mut rejects, front,
            );
            if profiling {
                mark = Some(Instant::now()); // issue timed itself (wakeup/select)
            }

            // ---- dispatch (rename + steer) ------------------------------
            self.dispatch_cycle(cycle, insts, &mut frontq, &mut rob, &mut stores);
            if self.cfg.check {
                self.check_after_dispatch(cycle, &rob);
                if !self.sched.head_only() {
                    self.check_wakeup_state(cycle, &rob);
                }
                self.check_store_tracker(cycle, &rob, &stores);
            }
            if let Some(p) = &mut self.profile {
                p.dispatch += lap(&mut mark);
            }

            // ---- fetch ---------------------------------------------------
            let cap = 2 * self.cfg.fetch_width;
            if fetch_stalled_on.is_none() {
                for _ in 0..self.cfg.fetch_width {
                    if fetch_index >= insts.len() || frontq.len() >= cap {
                        break;
                    }
                    let d = &insts[fetch_index];
                    if let Some(addr) = d.mem_addr {
                        recent_mem_addr = addr;
                    }
                    let mut mispredicted = false;
                    if d.is_conditional_branch() {
                        let predicted = self.bpred.predict_and_update(d.pc, d.taken);
                        mispredicted = !self.cfg.bpred.perfect && predicted != d.taken;
                    }
                    let taken_cti = d.is_control() && d.taken;
                    frontq.push_back(FrontEndSlot {
                        payload: SlotPayload::Real(fetch_index),
                        ready_at: cycle + self.cfg.frontend_depth,
                        mispredicted,
                    });
                    if self.probes_on() {
                        self.emit(ProbeEvent::Fetch {
                            cycle,
                            seq: d.seq,
                            pc: d.pc,
                            wrong_path: false,
                            mispredicted,
                        });
                    }
                    fetch_index += 1;
                    if self.cfg.fetch_breaks_on_taken && taken_cti && !mispredicted {
                        break; // realistic fetch: stop at a taken branch
                    }
                    if mispredicted {
                        fetch_stalled_on = Some(d.seq);
                        // Wrong-path fetch continues from the (wrongly)
                        // predicted target; the synthetic stream chains
                        // sequence numbers after the branch.
                        wrong_seq = d.seq + 1;
                        wrong_pc = d.pc.wrapping_add(8);
                        break;
                    }
                }
            } else if self.cfg.model_wrong_path {
                for _ in 0..self.cfg.fetch_width {
                    if frontq.len() >= cap {
                        break;
                    }
                    // A wrong-path instruction: reads two live registers
                    // (so it waits in the window like real work) but writes
                    // nothing (r0), so no rename state needs recovery.
                    // Every third one is a load that strides ahead of the
                    // program's recent data — the cache pollution that makes
                    // wrong paths expensive on real machines.
                    let a = ce_isa::Reg::new(wrong_reg);
                    let b = ce_isa::Reg::new(8 + (wrong_reg + 5) % 16);
                    wrong_reg = 8 + (wrong_reg + 1) % 16;
                    let (inst, mem_addr) = if wrong_seq.is_multiple_of(3) {
                        wrong_mem_offset = wrong_mem_offset.wrapping_add(
                            self.cfg.dcache.line_bytes as u32 * 2,
                        );
                        (
                            ce_isa::Instruction::mem(ce_isa::Opcode::Lw, ce_isa::Reg::ZERO, 0, a),
                            Some(recent_mem_addr.wrapping_add(wrong_mem_offset)),
                        )
                    } else {
                        (
                            ce_isa::Instruction::rrr(
                                ce_isa::Opcode::Addu,
                                ce_isa::Reg::ZERO,
                                a,
                                b,
                            ),
                            None,
                        )
                    };
                    let d = DynInst {
                        seq: wrong_seq,
                        pc: wrong_pc,
                        inst,
                        next_pc: wrong_pc.wrapping_add(4),
                        taken: false,
                        mem_addr,
                    };
                    wrong_seq += 1;
                    wrong_pc = wrong_pc.wrapping_add(4);
                    self.stats.wrong_path_fetched += 1;
                    frontq.push_back(FrontEndSlot {
                        payload: SlotPayload::WrongPath(d),
                        ready_at: cycle + self.cfg.frontend_depth,
                        mispredicted: false,
                    });
                    if self.probes_on() {
                        self.emit(ProbeEvent::Fetch {
                            cycle,
                            seq: d.seq,
                            pc: d.pc,
                            wrong_path: true,
                            mispredicted: false,
                        });
                    }
                }
            }

            if let Some(p) = &mut self.profile {
                p.fetch += lap(&mut mark);
            }

            self.stats.occupancy_sum += self.sched.occupancy() as u64;
            if self.cfg.check && !self.check.violations().is_empty() {
                return self.checker_abort(cycle);
            }
        }

        self.stats.cycles = cycle;
        self.stats.committed = committed as u64;
        self.stats.dcache_accesses = self.dcache.hits() + self.dcache.misses();
        self.stats.dcache_misses = self.dcache.misses();
        if let Some(f) = self.cfg.fault {
            if f.kind == FaultKind::StatsCorrupt {
                // Silent accounting corruption; the end-of-run
                // reconciliation below is what must catch it.
                self.stats.issued = self.stats.issued.wrapping_add(1);
            }
        }
        if self.cfg.check {
            self.check.on_finish(&self.stats, &self.cfg);
            if !self.check.violations().is_empty() {
                return self.checker_abort(cycle);
            }
        }
        self.finish_probes();
        Ok(self.stats.clone())
    }

    /// Ends a checked run on recorded violations: probes still get their
    /// end-of-run flush (a pipeview log of the failing window is exactly
    /// what one debugs with), then the violations come back as a value.
    fn checker_abort(&mut self, cycle: u64) -> Result<SimStats, SimError> {
        self.finish_probes();
        Err(SimError::Checker { cycle, violations: self.check.violations().to_vec() })
    }

    fn note_commit(&mut self, e: &Entry) {
        match e.d.inst.opcode.kind() {
            OperationKind::Branch => {
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredictions += 1;
                }
            }
            OperationKind::Load => self.stats.loads += 1,
            OperationKind::Store => self.stats.stores += 1,
            _ => {}
        }
        if e.used_intercluster {
            self.stats.intercluster_bypasses += 1;
        }
    }

    /// First cycle the value in `preg` can feed an FU in `cluster`.
    fn avail_in(&self, preg: Preg, cluster: usize) -> u64 {
        let info = self.pregs[preg as usize];
        if info.ready == u64::MAX {
            return u64::MAX;
        }
        let Some(producer) = info.cluster else {
            // Architectural value present before the program started.
            return info.ready;
        };
        let cross_penalty =
            if producer != cluster { self.cfg.intercluster_extra } else { 0 };
        let mut avail = match self.cfg.bypass_model {
            crate::config::BypassModel::Full => info.ready + cross_penalty,
            crate::config::BypassModel::None => {
                info.ready + self.cfg.regwrite_delay + cross_penalty
            }
        };
        if self.cfg.pipelined_wakeup_select {
            // Wakeup and select in separate stages: the earliest a
            // dependent can be selected slips by one cycle (Figure 10).
            avail += 1;
        }
        avail
    }

    /// Whether the consumer grabbed `preg` off a bypass path (rather than
    /// the local register file), and from which cluster it came.
    fn bypass_source(&self, preg: Preg, consumer_cluster: usize, at: u64) -> Option<usize> {
        if self.cfg.bypass_model == crate::config::BypassModel::None {
            return None; // everything comes from the register file
        }
        let info = self.pregs[preg as usize];
        let producer = info.cluster?;
        let regfile_at = info.ready
            + self.cfg.regwrite_delay
            + if producer != consumer_cluster { self.cfg.intercluster_extra } else { 0 };
        (at < regfile_at).then_some(producer)
    }

    /// Earliest cycle `preg` is usable in its *producer's own* cluster —
    /// the cross-cluster penalty stripped, everything else (register-file
    /// read delay, pipelined wakeup) kept. A candidate whose operands pass
    /// this but fail [`avail_in`](Self::avail_in) is waiting purely on the
    /// inter-cluster bypass.
    fn avail_local(&self, preg: Preg) -> u64 {
        let cluster = self.pregs[preg as usize].cluster.unwrap_or(0);
        self.avail_in(preg, cluster)
    }

    /// Classifies an operands-not-ready rejection for the stall
    /// accountant: ready-at-producer-but-not-here is [`InterclusterWait`];
    /// an unready FIFO head shadowing queued work is [`FifoHeadNotReady`];
    /// everything else is plain [`OperandWait`].
    ///
    /// [`InterclusterWait`]: StallCause::InterclusterWait
    /// [`FifoHeadNotReady`]: StallCause::FifoHeadNotReady
    /// [`OperandWait`]: StallCause::OperandWait
    fn operand_wait_cause(
        &self,
        id: InstId,
        required: &[Option<Preg>],
        cycle: u64,
    ) -> StallCause {
        if self.cfg.clusters > 1
            && required.iter().flatten().all(|&p| self.avail_local(p) <= cycle)
        {
            return StallCause::InterclusterWait;
        }
        if self.sched.head_only() {
            let shadows_work = self
                .sched
                .placement_of(id)
                .and_then(|f| self.sched.pool().map(|p| p.fifo_len(FifoId(f as usize))))
                .map(|len| len > 1)
                .unwrap_or(false);
            if shadows_work {
                return StallCause::FifoHeadNotReady;
            }
        }
        StallCause::OperandWait
    }

    /// One wakeup/select pass. Under oldest-first selection the central
    /// and steered windows draw candidates one at a time from the
    /// scheduler's ring scan; the head-only FIFOs and the other selection
    /// policies build their candidate list up front. Either way candidates
    /// are probed in order until the issue width is spent.
    ///
    /// The prune rule: a candidate that is asleep (an operand not yet
    /// produced) or not yet ready (its best-case operand arrival still in
    /// the future) is rejected by every check below, so it may be skipped
    /// unprobed once its rejection can no longer be charged. Attribution
    /// charges only the first `width − issued` rejects in scan order, and
    /// `issued` only grows, so once `rejects + issued ≥ width` no later
    /// reject is charged. Without attribution that holds from the start.
    /// Skipping never changes which instructions issue or which causes
    /// are charged. It is off whenever a fault is armed: `EarlySelect` and
    /// `HotEntryCorrupt` act on candidates the rule would skip.
    #[allow(clippy::too_many_arguments)]
    fn issue_cycle(
        &mut self,
        cycle: u64,
        rob: &mut VecDeque<Entry>,
        stores: &mut StoreTracker,
        events: &mut EventHeap,
        candidates: &mut Vec<Candidate>,
        fu_used: &mut [usize],
        rejects: &mut Vec<StallCause>,
        front: FrontState,
    ) {
        // The selection audit enumerates every candidate itself, before
        // the pass, rather than trusting the scan it audits.
        let audit = self.cfg.check.then(|| self.sched.candidates());
        let wake_mark = if self.profile.is_some() { Some(Instant::now()) } else { None };
        let wakeup = !self.sched.head_only();
        let ring_scan = wakeup && self.cfg.selection == SelectionPolicy::OldestFirst;
        if !ring_scan {
            self.sched.candidates_into(candidates);
            match self.cfg.selection {
                SelectionPolicy::OldestFirst => candidates.sort_unstable_by_key(|c| c.id),
                // Keep the scheduler's slot order: physical position, not
                // age (the HP PA-8000-style policy the paper assumes).
                SelectionPolicy::Position => {}
                SelectionPolicy::YoungestFirst => {
                    candidates.sort_unstable_by_key(|c| Reverse(c.id))
                }
            }
        }
        let select_mark = wake_mark.map(|m| {
            let now = Instant::now();
            if let Some(p) = &mut self.profile {
                p.wakeup += now - m;
            }
            now
        });
        let attr = self.cfg.attribution;
        let width = self.cfg.issue_width;
        rejects.clear();
        let rob_base = rob.front().map(|e| e.seq).unwrap_or(0);
        let rob_end = rob_base + rob.len() as u64;
        let fus_per_cluster = self.cfg.fus_per_cluster();
        fu_used.iter_mut().for_each(|u| *u = 0);
        let mut ports_used = 0usize;
        let mut issued = 0usize;

        // Injected scheduler faults (`cfg.fault`; `None` everywhere by
        // default, so this block costs one branch per cycle). See
        // [`FaultKind`] for why each is detected-or-masked.
        let mut inject_drop = false;
        let mut inject_early_select = false;
        let mut inject_hot_corrupt = false;
        if let Some(f) = self.cfg.fault {
            if cycle == f.at_cycle {
                match f.kind {
                    FaultKind::DropIssueCycle => inject_drop = true,
                    FaultKind::EarlySelect => inject_early_select = true,
                    FaultKind::HotEntryCorrupt => inject_hot_corrupt = true,
                    FaultKind::StatsCorrupt | FaultKind::PanicCell => {}
                }
            }
        }
        let may_prune = wakeup && self.cfg.fault.is_none();

        // List index, or sequence-number offset from the ROB head.
        let mut cursor = 0usize;
        while !inject_drop && issued < width {
            let prune = may_prune && (!attr || rejects.len() + issued >= width);
            let cand = if ring_scan {
                let from = InstId(rob_base + cursor as u64);
                let Some(c) = self.sched.next_candidate(from, InstId(rob_end), prune) else {
                    break;
                };
                cursor = (c.id.0 - rob_base) as usize + 1;
                c
            } else {
                let Some(&c) = candidates.get(cursor) else { break };
                cursor += 1;
                c
            };
            let h = (cand.id.0 & self.hot_mask) as usize;
            if inject_hot_corrupt {
                // The wakeup array lies: the first candidate's mirrored
                // operands vanish, so it looks ready.
                inject_hot_corrupt = false;
                self.hot[h].srcs = [None, None];
            }
            if prune && (self.wake_pending[h] != 0 || self.wake_min_ready[h] > cycle) {
                continue;
            }
            // Reject-path checks read only the 16-byte hot entry (and the
            // small preg/store tables); the ROB entry is touched once the
            // candidate is committed to issuing.
            let hot = self.hot[h];
            debug_assert!((cand.id.0 - rob_base) < rob.len() as u64);
            debug_assert!(rob[(cand.id.0 - rob_base) as usize].issued_at.is_none());

            // Stores split address generation from data: they issue once
            // the address register is ready (making their address known,
            // the Table 3 rule) and complete when the data arrives — which
            // requires the data producer to at least have issued, so the
            // arrival time is known.
            let is_store = hot.kind == OperationKind::Store;
            let split_store = is_store && self.cfg.split_store_issue;
            let required_srcs: &[Option<Preg>] =
                if split_store { &hot.srcs[..1] } else { &hot.srcs[..] };
            if split_store {
                let data_unknown = hot.srcs[1]
                    .map(|preg| self.pregs[preg as usize].ready == u64::MAX)
                    .unwrap_or(false);
                if data_unknown {
                    if attr {
                        // Waiting on the store-data producer: a dataflow
                        // wait (documented approximation).
                        rejects.push(StallCause::OperandWait);
                    }
                    continue;
                }
            }

            // Pick the execution cluster and check operand readiness.
            let cluster = match cand.cluster {
                Some(c) => {
                    if fu_used[c] >= fus_per_cluster {
                        if attr {
                            rejects.push(StallCause::FuPortContention);
                        }
                        continue;
                    }
                    let ready = required_srcs
                        .iter()
                        .flatten()
                        .all(|&p| self.avail_in(p, c) <= cycle);
                    if !ready && inject_early_select {
                        // Injected fault: select fires ahead of wakeup.
                        inject_early_select = false;
                    } else if !ready {
                        if attr {
                            let cause = self.operand_wait_cause(cand.id, required_srcs, cycle);
                            rejects.push(cause);
                        }
                        continue;
                    }
                    c
                }
                None => {
                    // Execution-driven steering: choose the cluster whose
                    // operands arrive first, preferring cluster 0 on ties
                    // (Section 5.6.1).
                    let mut picked =
                        self.pick_cluster(required_srcs, cycle, fu_used, fus_per_cluster);
                    if picked.is_none() && inject_early_select {
                        // Injected fault: select fires ahead of wakeup —
                        // any cluster with a free FU will do.
                        inject_early_select = false;
                        picked = (0..self.cfg.clusters).find(|&c| fu_used[c] < fus_per_cluster);
                    }
                    match picked {
                        Some(c) => c,
                        None => {
                            if attr {
                                // If some cluster (FU caps ignored) had the
                                // operands ready, only contention blocked
                                // the issue; otherwise it is an operand
                                // wait, possibly cross-cluster.
                                let ready_somewhere = (0..self.cfg.clusters).any(|c| {
                                    required_srcs
                                        .iter()
                                        .flatten()
                                        .all(|&p| self.avail_in(p, c) <= cycle)
                                });
                                rejects.push(if ready_somewhere {
                                    StallCause::FuPortContention
                                } else {
                                    self.operand_wait_cause(cand.id, required_srcs, cycle)
                                });
                            }
                            continue;
                        }
                    }
                }
            };

            if self.probes_on() {
                self.emit(ProbeEvent::Wakeup { cycle, seq: cand.id.0, cluster });
            }

            // Memory structural and ordering constraints.
            let kind = hot.kind;
            let is_mem = matches!(kind, OperationKind::Load | OperationKind::Store);
            if is_mem && ports_used >= self.cfg.dcache.ports {
                if attr {
                    rejects.push(StallCause::FuPortContention);
                }
                continue;
            }
            if kind == OperationKind::Load {
                let load_word = hot.mem_addr.map(|a| a & !3);
                if !stores.load_may_issue(cand.id.0, load_word, self.cfg.mem_disambiguation) {
                    if attr {
                        // Blocked by an older store: a memory-dependence
                        // wait (documented approximation).
                        rejects.push(StallCause::OperandWait);
                    }
                    continue;
                }
            }

            // The candidate issues: from here on no check rejects it, and
            // the ROB entry comes into play.
            let idx = (cand.id.0 - rob_base) as usize;
            if self.cfg.check {
                // Audit the issue decision against primary state (ROB
                // operands, pool queues) before any mutation happens.
                self.check_issue(cycle, cand.id, cluster, rob, rob_base, stores);
            }

            // Latency: ALU/branch/jump 1 cycle; stores complete on issue;
            // loads add the D-cache access.
            let latency = match kind {
                OperationKind::Load => {
                    let load_word = hot.mem_addr.map(|a| a & !3);
                    if stores.forwarding_store(cand.id.0, load_word).is_some() {
                        self.stats.forwarded_loads += 1;
                        2
                    } else {
                        let addr = hot.mem_addr.expect("loads carry addresses");
                        match self.dcache.access(addr, false) {
                            Access::Hit => 2,
                            Access::Miss { .. } => 2 + self.cfg.dcache.miss_penalty,
                        }
                    }
                }
                OperationKind::Store => {
                    let addr = hot.mem_addr.expect("stores carry addresses");
                    let _ = self.dcache.access(addr, true);
                    // The store completes when its data arrives (it may
                    // issue address-first, before the data is ready).
                    let data_wait = hot
                        .srcs
                        .get(1)
                        .copied()
                        .flatten()
                        .map(|p| self.avail_in(p, cluster).saturating_sub(cycle))
                        .unwrap_or(0);
                    1 + data_wait
                }
                _ => self.cfg.op_latency(rob[idx].d.inst.opcode),
            };

            // Record inter-cluster bypass usage before mutating preg state.
            let entry = &mut rob[idx];
            let mut used_intercluster = false;
            for &src in entry.srcs.iter().flatten() {
                if let Some(producer) = self.bypass_source(src, cluster, cycle) {
                    if producer != cluster {
                        used_intercluster = true;
                    }
                }
            }
            entry.used_intercluster = used_intercluster;
            entry.cluster = Some(cluster);
            entry.issued_at = Some(cycle);
            entry.finish_at = Some(cycle + latency);
            if let Some(dest) = entry.dest {
                self.pregs[dest as usize] =
                    PregInfo { ready: cycle + latency, cluster: Some(cluster) };
                // Tag broadcast: consumers waiting on `dest` learn its
                // arrival time; the last outstanding operand wakes them.
                if wakeup {
                    self.broadcast_ready(dest);
                }
            }
            events.push(Reverse((cycle + latency, cand.id.0)));
            if is_store {
                // Later loads in this same issue pass must see the store
                // as issued (the AddressesKnown/Oracle predicates).
                stores.mark_issued(cand.id.0);
            }

            if rob[idx].wrong_path {
                self.stats.wrong_path_issued += 1;
            }
            self.stats.issued += 1;
            self.sched.remove(cand.id);
            fu_used[cluster] += 1;
            if is_mem {
                ports_used += 1;
            }
            issued += 1;
            if self.probes_on() {
                self.emit(ProbeEvent::Issue {
                    cycle,
                    seq: cand.id.0,
                    cluster,
                    latency,
                    intercluster: used_intercluster,
                });
            }
        }
        self.stats.issue_histogram[issued.min(16)] += 1;
        if attr {
            // Charge the unused slots: one per rejected candidate in scan
            // order, the remainder (the window held too few candidates) to
            // the front-end background cause. Exactly `width − issued`
            // slots are charged, so the per-run identity
            // `sum(causes) + issued == width × cycles` holds by
            // construction.
            let unused = self.cfg.issue_width - issued;
            let from_rejects = rejects.len().min(unused);
            for &cause in rejects.iter().take(from_rejects) {
                self.stats.stall_breakdown.charge(cause, 1);
            }
            let leftover = (unused - from_rejects) as u64;
            if leftover > 0 {
                self.stats.stall_breakdown.charge(background_cause(front), leftover);
            }
        }
        if let Some(audit) = audit {
            self.check_after_issue(cycle, &audit, rob, rob_base, stores, fu_used, ports_used, issued);
        }
        if let (Some(m), Some(p)) = (select_mark, &mut self.profile) {
            p.select += Instant::now() - m;
        }
    }

    /// Best-case counterpart of [`avail_in`](Self::avail_in): the earliest
    /// cycle the value in a *produced* register could feed any cluster —
    /// the cross-cluster penalty taken as zero, every other delay kept.
    /// `min_ready` bounds built from this can only under-estimate, which
    /// is the safe direction for pruning. Architectural values (no
    /// producing cluster) are available at `ready` exactly.
    fn best_case_avail(&self, info: PregInfo) -> u64 {
        debug_assert_ne!(info.ready, u64::MAX);
        if info.cluster.is_none() {
            return info.ready;
        }
        let mut avail = info.ready;
        if self.cfg.bypass_model == crate::config::BypassModel::None {
            avail += self.cfg.regwrite_delay;
        }
        if self.cfg.pipelined_wakeup_select {
            avail += 1;
        }
        avail
    }

    /// Registers a just-dispatched instruction with the tag-broadcast
    /// bookkeeping: counts unproduced operands (and enlists on their
    /// producers' waiter lists), folds already-known operands into the
    /// best-case readiness bound, and wakes the entry immediately when
    /// nothing is outstanding.
    fn register_wakeup(&mut self, seq: u64, srcs: [Option<Preg>; 2], kind: OperationKind) {
        let h = (seq & self.hot_mask) as usize;
        self.dispatch_count += 1;
        let token = self.dispatch_count;
        self.wake_token[h] = token;
        let split_store = kind == OperationKind::Store && self.cfg.split_store_issue;
        let mut pending = 0u8;
        let mut bound = 0u64;
        for (i, &src) in srcs.iter().enumerate() {
            let Some(p) = src else { continue };
            let info = self.pregs[p as usize];
            if info.ready == u64::MAX {
                pending += 1;
                self.waiters[p as usize].push((seq, token));
            } else if !(split_store && i == 1) {
                // A split store's data operand only needs a *known*
                // arrival, not a ready value — it never constrains the
                // earliest issue cycle, so it stays out of the bound.
                bound = bound.max(self.best_case_avail(info));
            }
        }
        self.wake_pending[h] = pending;
        self.wake_min_ready[h] = bound;
        if pending == 0 {
            self.sched.set_awake(InstId(seq));
        }
    }

    /// Drains the waiter list of a register whose producer just issued:
    /// each still-valid waiter loses one pending operand, absorbs the
    /// value's best-case arrival into its readiness bound, and wakes when
    /// its last operand is accounted for. Waiters whose ring token
    /// mismatches belong to a squashed instruction whose sequence number
    /// was reused — ignored.
    fn broadcast_ready(&mut self, p: Preg) {
        if self.waiters[p as usize].is_empty() {
            return;
        }
        // Take the list to end the borrow; the loop may push to *other*
        // registers' lists never this one (a producer issues once).
        let mut ws = std::mem::take(&mut self.waiters[p as usize]);
        let contribution = self.best_case_avail(self.pregs[p as usize]);
        for &(seq, token) in &ws {
            let h = (seq & self.hot_mask) as usize;
            if self.wake_token[h] != token {
                continue;
            }
            let hot = self.hot[h];
            let split_store =
                hot.kind == OperationKind::Store && self.cfg.split_store_issue;
            let data_only =
                split_store && hot.srcs[1] == Some(p) && hot.srcs[0] != Some(p);
            if !data_only {
                let b = &mut self.wake_min_ready[h];
                *b = (*b).max(contribution);
            }
            let left = self.wake_pending[h].saturating_sub(1);
            self.wake_pending[h] = left;
            if left == 0 {
                self.sched.set_awake(InstId(seq));
            }
        }
        ws.clear();
        self.waiters[p as usize] = ws; // hand the allocation back
    }

    /// Checker audit of the tag-broadcast bookkeeping the prune rule
    /// trusts: for every resident (unissued) entry, the pending count and
    /// readiness bound must equal a recomputation from primary state, and
    /// the scheduler's awake bit must be set exactly when nothing is
    /// pending. Exact equality holds because a register's `ready`/`cluster`
    /// never change between the producer's issue and the consumer's
    /// departure, so each contribution is the same whenever it is
    /// computed.
    fn check_wakeup_state(&mut self, cycle: u64, rob: &VecDeque<Entry>) {
        for e in rob.iter().filter(|e| e.issued_at.is_none()) {
            let h = (e.seq & self.hot_mask) as usize;
            let split_store = e.d.inst.opcode.kind() == OperationKind::Store
                && self.cfg.split_store_issue;
            let mut pending = 0u8;
            let mut bound = 0u64;
            for (i, &src) in e.srcs.iter().enumerate() {
                let Some(p) = src else { continue };
                let info = self.pregs[p as usize];
                if info.ready == u64::MAX {
                    pending += 1;
                } else if !(split_store && i == 1) {
                    bound = bound.max(self.best_case_avail(info));
                }
            }
            if self.wake_pending[h] != pending {
                self.check.violation(
                    cycle,
                    Some(e.seq),
                    format!(
                        "wakeup pending count desynced: tracked {}, recomputed {pending}",
                        self.wake_pending[h]
                    ),
                );
            }
            if self.wake_min_ready[h] != bound {
                self.check.violation(
                    cycle,
                    Some(e.seq),
                    format!(
                        "wakeup readiness bound desynced: tracked {}, recomputed {bound}",
                        self.wake_min_ready[h]
                    ),
                );
            }
            let awake = self.sched.is_awake(InstId(e.seq));
            if awake != (pending == 0) {
                self.check.violation(
                    cycle,
                    Some(e.seq),
                    format!("awake bit {awake} with {pending} operands pending"),
                );
            }
        }
    }

    fn pick_cluster(
        &self,
        srcs: &[Option<Preg>],
        cycle: u64,
        fu_used: &[usize],
        fus_per_cluster: usize,
    ) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (c, used) in fu_used.iter().enumerate().take(self.cfg.clusters) {
            if *used >= fus_per_cluster {
                continue;
            }
            let avail = srcs
                .iter()
                .flatten()
                .map(|&p| self.avail_in(p, c))
                .max()
                .unwrap_or(0);
            if avail > cycle {
                continue;
            }
            // Lower availability time wins; cluster 0 wins ties because it
            // is scanned first.
            if best.map(|(a, _)| avail < a).unwrap_or(true) {
                best = Some((avail, c));
            }
        }
        best.map(|(_, c)| c)
    }

    // ---- invariant checker hooks (active only with `cfg.check`) --------

    /// Commit-time invariants: strictly increasing retirement order, and a
    /// sane dispatch → issue → complete → commit timeline.
    fn check_commit(&mut self, cycle: u64, e: &Entry) {
        self.check.on_commit(cycle, e.seq);
        if e.wrong_path {
            self.check.violation(cycle, Some(e.seq), "wrong-path instruction committed");
        }
        if !e.done {
            self.check.violation(cycle, Some(e.seq), "committed while not done");
        }
        match (e.issued_at, e.finish_at) {
            // Complete runs after commit within a cycle, so a committing
            // entry finished on an earlier cycle.
            (Some(i), Some(f)) if e.dispatched_at < i && i < f && f < cycle => {}
            _ => self.check.violation(
                cycle,
                Some(e.seq),
                format!(
                    "commit timeline out of order: dispatched {}, issued {:?}, finished {:?}",
                    e.dispatched_at, e.issued_at, e.finish_at
                ),
            ),
        }
    }

    /// Issue-time invariants for one issuing instruction, audited against
    /// primary state (ROB operands, FIFO queues) before any mutation.
    fn check_issue(
        &mut self,
        cycle: u64,
        id: InstId,
        cluster: usize,
        rob: &VecDeque<Entry>,
        rob_base: u64,
        stores: &StoreTracker,
    ) {
        let e = &rob[(id.0 - rob_base) as usize];
        let kind = e.d.inst.opcode.kind();
        // The HotEntry ring is a performance mirror of the ROB; any skew
        // means the issue loop decided on stale operands.
        let hot = self.hot[(id.0 & self.hot_mask) as usize];
        if hot.srcs != e.srcs || hot.kind != kind || hot.mem_addr != e.d.mem_addr {
            self.check.violation(
                cycle,
                Some(id.0),
                format!(
                    "HotEntry ring desynced from ROB: hot ({:?}, {:?}, {:?}) vs \
                     ROB ({:?}, {:?}, {:?})",
                    hot.srcs, hot.kind, hot.mem_addr, e.srcs, kind, e.d.mem_addr
                ),
            );
        }
        // Operands-ready-at-issue, re-derived from the ROB operand fields.
        let split_store = kind == OperationKind::Store && self.cfg.split_store_issue;
        let required: &[Option<Preg>] = if split_store { &e.srcs[..1] } else { &e.srcs[..] };
        for &p in required.iter().flatten() {
            let at = self.avail_in(p, cluster);
            if at > cycle {
                self.check.violation(
                    cycle,
                    Some(id.0),
                    format!(
                        "issued with operand p{p} unavailable in cluster {cluster} until {at}"
                    ),
                );
            }
        }
        // The dependence-based organizations may only issue FIFO heads.
        if self.sched.head_only() {
            let head = self
                .sched
                .placement_of(id)
                .and_then(|f| self.sched.pool().and_then(|p| p.head(FifoId(f as usize))));
            if head != Some(id) {
                self.check
                    .violation(cycle, Some(id.0), format!("issued from mid-FIFO: head is {head:?}"));
            }
        }
        // Store-to-load forwarding: the StoreTracker's answer must agree
        // with a scan of the ROB's in-flight stores.
        if kind == OperationKind::Load {
            let word = e.d.mem_addr.map(|a| a & !3);
            let from_tracker = stores.forwarding_store(id.0, word);
            let from_rob = word.and_then(|w| {
                rob.iter()
                    .rev()
                    .filter(|s| s.seq < id.0)
                    .find(|s| {
                        s.d.inst.opcode.kind() == OperationKind::Store
                            && s.d.mem_addr.map(|a| a & !3) == Some(w)
                    })
                    .map(|s| s.seq)
            });
            if from_tracker != from_rob {
                self.check.violation(
                    cycle,
                    Some(id.0),
                    format!(
                        "forwarding store disagreement: tracker {from_tracker:?} vs \
                         ROB scan {from_rob:?}"
                    ),
                );
            }
        }
    }

    /// Post-pass invariants: issue caps recounted from the ROB, and the
    /// selection audit — no issuable candidate may be left waiting while
    /// issue width went unused. `candidates` is the scheduler's complete
    /// candidate set from before the pass, not what the scan visited, so
    /// the audit covers every entry the prune rule skipped.
    #[allow(clippy::too_many_arguments)]
    fn check_after_issue(
        &mut self,
        cycle: u64,
        candidates: &[Candidate],
        rob: &VecDeque<Entry>,
        rob_base: u64,
        stores: &StoreTracker,
        fu_used: &[usize],
        ports_used: usize,
        issued: usize,
    ) {
        let fus_per_cluster = self.cfg.fus_per_cluster();
        let mut per_cluster = vec![0usize; self.cfg.clusters];
        let mut mem = 0usize;
        let mut total = 0usize;
        for e in rob.iter() {
            if e.issued_at != Some(cycle) {
                continue;
            }
            total += 1;
            match e.cluster {
                Some(c) if c < self.cfg.clusters => per_cluster[c] += 1,
                other => self.check.violation(
                    cycle,
                    Some(e.seq),
                    format!("issued into nonexistent cluster {other:?}"),
                ),
            }
            if matches!(e.d.inst.opcode.kind(), OperationKind::Load | OperationKind::Store) {
                mem += 1;
            }
        }
        if total != issued {
            self.check.violation(
                cycle,
                None,
                format!("issue loop reported {issued} issues, the ROB holds {total}"),
            );
        }
        if total > self.cfg.issue_width {
            self.check.violation(
                cycle,
                None,
                format!("issued {total} > issue width {}", self.cfg.issue_width),
            );
        }
        for (c, &n) in per_cluster.iter().enumerate() {
            if n > fus_per_cluster {
                self.check
                    .violation(cycle, None, format!("cluster {c} issued {n} > {fus_per_cluster} FUs"));
            }
        }
        if mem > self.cfg.dcache.ports || mem != ports_used {
            self.check.violation(
                cycle,
                None,
                format!(
                    "memory issues {mem} vs {ports_used} ports counted, {} ports available",
                    self.cfg.dcache.ports
                ),
            );
        }
        // Selection audit. Sound because every resource an issue decision
        // consumes (FU slots, ports, width) only becomes scarcer over a
        // pass, and operand readiness at `cycle` cannot be created
        // mid-pass (a result produced now is ready at `cycle + latency`):
        // a leftover candidate feasible against the *final* state was
        // feasible when scanned, so skipping it broke the policy.
        if total < self.cfg.issue_width {
            for &cand in candidates {
                let e = &rob[(cand.id.0 - rob_base) as usize];
                if e.issued_at.is_some() {
                    continue; // issued this pass
                }
                let kind = e.d.inst.opcode.kind();
                // Mid-pass store issues *relax* the load-ordering (and
                // split-store data-known) predicates. Under oldest-first
                // every store older than the candidate settled before its
                // scan, so the audit is exact; other scan orders can skip
                // a load legitimately, so audit only operations whose
                // conditions are monotone there.
                let auditable = match self.cfg.selection {
                    crate::config::SelectionPolicy::OldestFirst => true,
                    _ => {
                        kind != OperationKind::Load
                            && !(kind == OperationKind::Store && self.cfg.split_store_issue)
                    }
                };
                if auditable
                    && self.would_issue(cand, cycle, rob_base, rob, stores, fu_used, ports_used)
                {
                    self.check.violation(
                        cycle,
                        Some(cand.id.0),
                        "issuable candidate skipped with issue width to spare",
                    );
                }
            }
        }
    }

    /// Re-evaluates every issue condition for a still-waiting candidate
    /// against the post-pass resource state (the checker's selection
    /// audit; never used by the issue loop itself).
    #[allow(clippy::too_many_arguments)]
    fn would_issue(
        &self,
        cand: Candidate,
        cycle: u64,
        rob_base: u64,
        rob: &VecDeque<Entry>,
        stores: &StoreTracker,
        fu_used: &[usize],
        ports_used: usize,
    ) -> bool {
        let e = &rob[(cand.id.0 - rob_base) as usize];
        let kind = e.d.inst.opcode.kind();
        let split_store = kind == OperationKind::Store && self.cfg.split_store_issue;
        let required: &[Option<Preg>] = if split_store { &e.srcs[..1] } else { &e.srcs[..] };
        if split_store {
            let data_unknown = e.srcs[1]
                .map(|preg| self.pregs[preg as usize].ready == u64::MAX)
                .unwrap_or(false);
            if data_unknown {
                return false;
            }
        }
        let fus_per_cluster = self.cfg.fus_per_cluster();
        let cluster_ok = match cand.cluster {
            Some(c) => {
                fu_used[c] < fus_per_cluster
                    && required.iter().flatten().all(|&p| self.avail_in(p, c) <= cycle)
            }
            None => self.pick_cluster(required, cycle, fu_used, fus_per_cluster).is_some(),
        };
        if !cluster_ok {
            return false;
        }
        let is_mem = matches!(kind, OperationKind::Load | OperationKind::Store);
        if is_mem && ports_used >= self.cfg.dcache.ports {
            return false;
        }
        if kind == OperationKind::Load {
            let word = e.d.mem_addr.map(|a| a & !3);
            if !stores.load_may_issue(cand.id.0, word, self.cfg.mem_disambiguation) {
                return false;
            }
        }
        true
    }

    /// Post-dispatch invariants: occupancy bounds and the redundant-state
    /// mirrors (scheduler residency, StoreTracker) against the ROB.
    fn check_after_dispatch(&mut self, cycle: u64, rob: &VecDeque<Entry>) {
        let occ = self.sched.occupancy();
        let cap = self.sched.capacity();
        if occ > cap {
            self.check
                .violation(cycle, None, format!("scheduler occupancy {occ} > capacity {cap}"));
        }
        if rob.len() > self.cfg.max_inflight {
            self.check.violation(
                cycle,
                None,
                format!("{} in flight > limit {}", rob.len(), self.cfg.max_inflight),
            );
        }
        let waiting = rob.iter().filter(|e| e.issued_at.is_none()).count();
        if waiting != occ {
            self.check.violation(
                cycle,
                None,
                format!("{waiting} unissued ROB entries but the scheduler holds {occ}"),
            );
        }
    }

    /// StoreTracker ↔ ROB lockstep: the tracker mirrors exactly the
    /// in-flight stores, in program order, with matching flags.
    fn check_store_tracker(&mut self, cycle: u64, rob: &VecDeque<Entry>, stores: &StoreTracker) {
        let from_rob: Vec<(u64, Option<u32>, bool, bool)> = rob
            .iter()
            .filter(|e| e.d.inst.opcode.kind() == OperationKind::Store)
            .map(|e| (e.seq, e.d.mem_addr.map(|a| a & !3), e.issued_at.is_some(), e.done))
            .collect();
        let from_tracker: Vec<(u64, Option<u32>, bool, bool)> =
            stores.recs.iter().map(|r| (r.seq, r.word, r.issued, r.done)).collect();
        if from_rob != from_tracker {
            self.check.violation(
                cycle,
                None,
                format!(
                    "StoreTracker desynced from ROB: tracker {from_tracker:?} vs ROB {from_rob:?}"
                ),
            );
        }
    }

    fn dispatch_cycle(
        &mut self,
        cycle: u64,
        insts: &[DynInst],
        frontq: &mut VecDeque<FrontEndSlot>,
        rob: &mut VecDeque<Entry>,
        stores: &mut StoreTracker,
    ) {
        let mut dispatched = 0usize;
        let mut had_candidate = false;
        while dispatched < self.cfg.fetch_width {
            let Some(&slot) = frontq.front() else { break };
            if slot.ready_at > cycle {
                break;
            }
            had_candidate = true;
            let wrong_path = slot.payload.is_wrong_path();
            let synthesized;
            let d = match slot.payload {
                SlotPayload::Real(index) => &insts[index],
                SlotPayload::WrongPath(d) => {
                    synthesized = d;
                    &synthesized
                }
            };

            if rob.len() >= self.cfg.max_inflight {
                self.stats.inflight_stalls += 1;
                if self.probes_on() {
                    self.emit(ProbeEvent::DispatchStall {
                        cycle,
                        seq: d.seq,
                        cause: DispatchStallCause::InflightLimit,
                    });
                }
                break;
            }
            if d.inst.defs().is_some() && !self.rename.has_free() {
                self.stats.preg_stalls += 1;
                if self.probes_on() {
                    self.emit(ProbeEvent::DispatchStall {
                        cycle,
                        seq: d.seq,
                        cause: DispatchStallCause::NoPhysicalReg,
                    });
                }
                break;
            }
            // Steer/insert before renaming so a scheduler stall leaves the
            // rename state untouched.
            let placement = match self.sched.try_insert_explained(InstId(d.seq), &d.inst) {
                Ok(p) => p,
                Err(reject) => {
                    self.stats.scheduler_stalls += 1;
                    if self.probes_on() {
                        let chain_full =
                            matches!(reject, InsertReject::Steering { chain_full: true });
                        self.emit(ProbeEvent::DispatchStall {
                            cycle,
                            seq: d.seq,
                            cause: DispatchStallCause::SchedulerFull { chain_full },
                        });
                    }
                    break;
                }
            };
            let cluster = placement.cluster;
            if self.probes_on() {
                self.emit(ProbeEvent::Dispatch {
                    cycle,
                    seq: d.seq,
                    pc: d.pc,
                    cluster,
                    slot: placement.slot,
                    steer: placement.steer,
                });
            }

            let srcs = d.inst.uses().map(|u| u.map(|r| self.rename.lookup(r)));
            let (dest, prev_dest) = match d.inst.defs() {
                Some(r) => {
                    let (new, prev) = self.rename.rename_dest(r).expect("checked has_free");
                    self.pregs[new as usize] = PregInfo { ready: u64::MAX, cluster: None };
                    // A freshly allocated register has no consumers yet;
                    // its waiter list is empty in normal operation, but a
                    // fault-injected early issue can leave stale entries.
                    self.waiters[new as usize].clear();
                    (Some(new), Some(prev))
                }
                None => (None, None),
            };

            stores.on_dispatch(d);
            self.hot[(d.seq & self.hot_mask) as usize] =
                HotEntry { srcs, kind: d.inst.opcode.kind(), mem_addr: d.mem_addr };
            if !self.sched.head_only() {
                self.register_wakeup(d.seq, srcs, d.inst.opcode.kind());
            }
            rob.push_back(Entry {
                seq: d.seq,
                d: *d,
                srcs,
                dest,
                prev_dest,
                cluster,
                dispatched_at: cycle,
                issued_at: None,
                finish_at: None,
                done: false,
                mispredicted: slot.mispredicted,
                used_intercluster: false,
                wrong_path,
            });
            frontq.pop_front();
            dispatched += 1;
        }
        if dispatched == 0 && had_candidate {
            self.stats.dispatch_stall_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine;
    use ce_isa::asm::assemble;
    use ce_workloads::Emulator;

    fn trace_of(src: &str) -> Trace {
        let program = assemble(src).expect("assembles");
        Emulator::new(&program).run_to_completion(1_000_000).expect("halts")
    }

    fn run(mut cfg: SimConfig, src: &str) -> SimStats {
        // Every pipeline test doubles as a checker test: the invariant
        // checker re-derives the issue/commit decisions each cycle and
        // panics the run on any disagreement.
        cfg.check = true;
        Simulator::new(cfg).run(&trace_of(src))
    }

    /// A long chain of dependent ALU ops: IPC must approach 1 (one per
    /// cycle through the local bypass), never exceed it.
    #[test]
    fn dependent_chain_has_ipc_near_one() {
        let src = "
            li t0, 1
            addu t1, t0, t0\n".to_owned()
            + &"            addu t1, t1, t1\n".repeat(200)
            + "            halt\n";
        let stats = run(machine::baseline_8way(), &src);
        assert!(stats.ipc() <= 1.05, "chain cannot beat 1 IPC, got {}", stats.ipc());
        assert!(stats.ipc() > 0.7, "chain should approach 1 IPC, got {}", stats.ipc());
    }

    /// Independent ALU ops: an 8-wide machine should sustain well over
    /// 2 IPC even with front-end effects.
    #[test]
    fn independent_ops_exploit_width() {
        let mut src = String::from("li t0, 1\nli t1, 1\nli t2, 1\nli t3, 1\n");
        for _ in 0..100 {
            src.push_str("addu t4, t0, t1\naddu t5, t0, t1\naddu t6, t0, t1\naddu t7, t0, t1\n");
        }
        src.push_str("halt\n");
        let stats = run(machine::baseline_8way(), &src);
        assert!(stats.ipc() > 3.0, "independent stream too slow: {}", stats.ipc());
    }

    #[test]
    fn commits_every_instruction_exactly_once() {
        let stats = run(
            machine::baseline_8way(),
            "li t0, 50\nloop: addiu t0, t0, -1\nbnez t0, loop\nhalt\n",
        );
        // li + 50×(addiu,bne) + halt.
        assert_eq!(stats.committed, 102);
        assert_eq!(stats.branches, 50);
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // A data-dependent unpredictable branch pattern (LCG parity) vs a
        // monotone loop of the same instruction count.
        let unpredictable = "
            li s0, 12345
            li s1, 400
        loop:
            li t1, 1103515245
            mul s0, s0, t1
            addiu s0, s0, 12345
            srl t2, s0, 16
            andi t2, t2, 1
            beqz t2, skip
            addu s2, s2, t2
        skip:
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let predictable = "
            li s0, 12345
            li s1, 400
        loop:
            li t1, 1103515245
            mul s0, s0, t1
            addiu s0, s0, 12345
            srl t2, s0, 16
            andi t2, t2, 0
            beqz t2, skip
            addu s2, s2, t2
        skip:
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let a = run(machine::baseline_8way(), unpredictable);
        let b = run(machine::baseline_8way(), predictable);
        assert!(a.mispredictions > b.mispredictions + 50);
        assert!(a.ipc() < b.ipc(), "mispredictions must cost IPC");
    }

    #[test]
    fn cache_misses_slow_loads() {
        // Stream over 256 KB (thrashes 32 KB cache) vs re-reading one word.
        let thrash = "
            li s1, 2000
            move s2, gp
        loop:
            lw t0, 0(s2)
            addiu s2, s2, 128
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let friendly = "
            li s1, 2000
        loop:
            lw t0, 0(gp)
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let a = run(machine::baseline_8way(), thrash);
        let b = run(machine::baseline_8way(), friendly);
        assert!(a.dcache_miss_rate() > 0.9, "miss rate {}", a.dcache_miss_rate());
        assert!(b.dcache_miss_rate() < 0.05, "miss rate {}", b.dcache_miss_rate());
        assert!(a.cycles > b.cycles);
    }

    #[test]
    fn store_load_forwarding_detected() {
        let stats = run(
            machine::baseline_8way(),
            "
            li s1, 100
        loop:
            sw s1, 0(gp)
            lw t0, 0(gp)
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ",
        );
        assert!(stats.forwarded_loads >= 90, "forwarded {}", stats.forwarded_loads);
    }

    #[test]
    fn single_cluster_never_reports_intercluster_bypasses() {
        let stats = run(
            machine::baseline_8way(),
            "li t0, 7\nloop: addiu t0, t0, -1\nbnez t0, loop\nhalt\n",
        );
        assert_eq!(stats.intercluster_bypasses, 0);
    }

    #[test]
    fn clustered_machine_uses_intercluster_bypasses() {
        // Interleave two chains that cross-couple, forcing communication.
        let mut src = String::from("li t0, 1\nli t1, 2\n");
        for _ in 0..100 {
            src.push_str("addu t0, t0, t1\naddu t1, t1, t0\n");
        }
        src.push_str("halt\n");
        let stats = run(machine::clustered_fifos_8way(), &src);
        assert!(
            stats.intercluster_bypasses > 0,
            "cross-coupled chains must communicate across clusters"
        );
    }

    #[test]
    fn pipelined_wakeup_select_halves_chain_throughput() {
        // A pure dependence chain: atomic wakeup+select sustains 1 IPC,
        // the pipelined version at most 0.5 (one issue every two cycles) —
        // the Figure 10 bubble.
        let src = "li t0, 1\n".to_owned() + &"addu t0, t0, t0\n".repeat(300) + "halt\n";
        let atomic = run(machine::baseline_8way(), &src);
        let mut cfg = machine::baseline_8way();
        cfg.pipelined_wakeup_select = true;
        let pipelined = run(cfg, &src);
        assert!(pipelined.ipc() < 0.55, "pipelined chain IPC {}", pipelined.ipc());
        assert!(atomic.ipc() > 0.8, "atomic chain IPC {}", atomic.ipc());
    }

    #[test]
    fn no_bypass_model_waits_for_the_register_file() {
        let src = "li t0, 1\n".to_owned() + &"addu t0, t0, t0\n".repeat(200) + "halt\n";
        let full = run(machine::baseline_8way(), &src);
        let mut cfg = machine::baseline_8way();
        cfg.bypass_model = crate::config::BypassModel::None;
        let none = run(cfg, &src);
        // Chain step becomes 1 + regwrite_delay cycles.
        assert!(none.ipc() < full.ipc() / 2.0, "{} vs {}", none.ipc(), full.ipc());
        assert_eq!(none.intercluster_bypasses, 0);
    }

    #[test]
    fn selection_policies_agree_on_committed_work() {
        let src = "li t0, 50\nloop: addiu t0, t0, -1\nbnez t0, loop\nhalt\n";
        for policy in [
            crate::config::SelectionPolicy::OldestFirst,
            crate::config::SelectionPolicy::Position,
            crate::config::SelectionPolicy::YoungestFirst,
        ] {
            let mut cfg = machine::baseline_8way();
            cfg.selection = policy;
            let stats = run(cfg, src);
            assert_eq!(stats.committed, 102, "{policy:?}");
        }
    }

    #[test]
    fn weighted_latency_slows_multiply_chains() {
        let src = "li t0, 3\n".to_owned() + &"mul t0, t0, t0\n".repeat(100) + "halt\n";
        let uniform = run(machine::baseline_8way(), &src);
        let mut cfg = machine::baseline_8way();
        cfg.latency = crate::config::LatencyModel::Weighted;
        let weighted = run(cfg, &src);
        // A mul chain steps 3 cycles instead of 1.
        assert!(weighted.cycles > 2 * uniform.cycles, "{} vs {}", weighted.cycles, uniform.cycles);
        assert_eq!(weighted.committed, uniform.committed);
    }

    #[test]
    fn wrong_path_modeling_costs_cycles_but_not_correctness() {
        // Unpredictable branches: wrong-path pollution must slow the
        // machine down without changing what commits.
        let src = "
            li s0, 12345
            li s1, 300
        loop:
            li t1, 1103515245
            mul s0, s0, t1
            addiu s0, s0, 12345
            srl t2, s0, 16
            andi t2, t2, 1
            beqz t2, skip
            addu s2, s2, t2
        skip:
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let stall_model = run(machine::baseline_8way(), src);
        let mut cfg = machine::baseline_8way();
        cfg.model_wrong_path = true;
        let polluted = run(cfg, src);
        assert_eq!(polluted.committed, stall_model.committed);
        assert_eq!(polluted.mispredictions, stall_model.mispredictions);
        assert!(polluted.wrong_path_fetched > 0);
        assert!(polluted.wrong_path_issued <= polluted.wrong_path_fetched);
        assert!(
            polluted.cycles >= stall_model.cycles,
            "pollution cannot speed the machine up: {} vs {}",
            polluted.cycles,
            stall_model.cycles
        );
    }

    #[test]
    fn wrong_path_modeling_is_inert_without_mispredictions() {
        let src = "li t0, 100\nloop: addiu t0, t0, -1\nbgtz t0, loop\nhalt\n";
        let mut cfg = machine::baseline_8way();
        cfg.model_wrong_path = true;
        let stats = run(cfg, src);
        // The loop branch trains after the 12-bit history saturates
        // (~13 mispredictions); each one injects a bounded burst of
        // wrong-path work, far less than an unpredictable branch would.
        assert!(stats.mispredictions < 20, "{}", stats.mispredictions);
        assert!(stats.wrong_path_fetched < 80 * stats.mispredictions, "{}", stats.wrong_path_fetched);
        assert_eq!(stats.committed, 202);
    }

    #[test]
    fn perfect_prediction_is_an_upper_bound() {
        let src = "
            li s0, 12345
            li s1, 300
        loop:
            li t1, 1103515245
            mul s0, s0, t1
            addiu s0, s0, 12345
            srl t2, s0, 16
            andi t2, t2, 1
            beqz t2, skip
            addu s2, s2, t2
        skip:
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let real = run(machine::baseline_8way(), src);
        let mut cfg = machine::baseline_8way();
        cfg.bpred.perfect = true;
        let oracle = run(cfg, src);
        assert_eq!(oracle.mispredictions, 0);
        assert!(oracle.ipc() > real.ipc(), "{} vs {}", oracle.ipc(), real.ipc());
        assert_eq!(oracle.committed, real.committed);
    }

    #[test]
    fn memory_disambiguation_rules_order_correctly() {
        use crate::config::MemDisambiguation as M;
        // A store whose data hangs off a 12-cycle divide (weighted
        // latencies), followed by loads to *different* addresses: the
        // oracle knows they cannot conflict, the conservative rule makes
        // them wait for the store to finish.
        let src = "
            li s0, 1000000
            li s2, 3
            li s1, 200
        loop:
            div t0, s0, s2
            sw t0, 0(gp)
            lw t1, 64(gp)
            lw t2, 128(gp)
            addu s0, t0, s1
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ";
        let ipc = |rule| {
            let mut cfg = machine::baseline_8way();
            cfg.latency = crate::config::LatencyModel::Weighted;
            cfg.mem_disambiguation = rule;
            run(cfg, src).ipc()
        };
        let table3 = ipc(M::AddressesKnown);
        let conservative = ipc(M::AllStoresComplete);
        let oracle = ipc(M::Oracle);
        assert!(conservative <= table3 + 1e-9, "{conservative} vs {table3}");
        assert!(table3 <= oracle + 1e-9, "{table3} vs {oracle}");
        assert!(oracle > conservative, "the rules must actually differ here");
    }

    #[test]
    fn issue_histogram_accounts_every_cycle() {
        let src = "li t0, 50\nloop: addiu t0, t0, -1\nbnez t0, loop\nhalt\n";
        let stats = run(machine::baseline_8way(), src);
        let total: u64 = stats.issue_histogram.iter().sum();
        assert_eq!(total, stats.cycles, "every cycle lands in one bucket");
        let issued: u64 = stats
            .issue_histogram
            .iter()
            .enumerate()
            .map(|(n, &count)| n as u64 * count)
            .sum();
        assert_eq!(issued, stats.committed, "histogram mass equals instructions");
        assert!(stats.idle_issue_fraction() > 0.0, "front-end fill leaves idle cycles");
    }

    #[test]
    fn taken_branch_fetch_breaks_cost_throughput() {
        // A chain of taken jumps: the aggressive Table 3 fetch unit takes
        // eight per cycle, a realistic one takes one.
        let mut src = String::new();
        for i in 0..300 {
            src.push_str(&format!("L{i}: j L{}\n", i + 1));
        }
        src.push_str("L300: halt\n");
        let src = &src;
        let aggressive = run(machine::baseline_8way(), src);
        let mut cfg = machine::baseline_8way();
        cfg.fetch_breaks_on_taken = true;
        let realistic = run(cfg, src);
        assert!(
            realistic.cycles > 2 * aggressive.cycles,
            "{} vs {}",
            realistic.cycles,
            aggressive.cycles
        );
        assert_eq!(realistic.committed, aggressive.committed);
    }

    #[test]
    fn empty_trace_is_fine() {
        let stats = Simulator::new(machine::baseline_8way()).run(&Trace::new());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.committed, 0);
    }

    #[test]
    fn fifo_machine_close_to_window_on_chains() {
        // On a pure dependence chain the FIFO machine loses nothing: the
        // chain sits in one FIFO and issues head-to-head.
        let src = "li t0, 1\n".to_owned()
            + &"addu t0, t0, t0\n".repeat(300)
            + "halt\n";
        let win = run(machine::baseline_8way(), &src);
        let dep = run(machine::dependence_8way(), &src);
        assert!(
            (win.ipc() - dep.ipc()).abs() / win.ipc() < 0.02,
            "window {} vs fifos {}",
            win.ipc(),
            dep.ipc()
        );
    }
}
