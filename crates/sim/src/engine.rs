//! The discrete-event simulation engine.
//!
//! # Execution model
//!
//! Simulated threads are real OS threads that run **one at a time**. All
//! inter-thread ordering is decided by a single event queue ordered by
//! `(virtual time, sequence number)`, so a simulation is fully
//! deterministic regardless of host scheduling.
//!
//! Control passes by direct handoff. A thread that yields (by advancing
//! virtual time, parking, or exiting) locks the engine state and runs the
//! scheduling step itself: it accepts the next event, wakes that event's
//! thread, and sleeps until its own turn comes back. When the next event
//! is its own, it keeps running without any wake-up. The driver in
//! [`Engine::run`] runs the same step to start the run, and otherwise only
//! acts on what must not happen on a simulated thread: firing the sampler
//! when an accepted event crosses a window boundary, an empty queue or
//! exhausted event budget, a panic, and shutdown.
//!
//! Because exactly one thread — simulated or driver — runs at any moment,
//! simulated threads may freely share state via ordinary `Mutex`es — the
//! locks are never contended.
//!
//! # Thread lifecycle
//!
//! * [`Engine::spawn`] / [`SimCtx::spawn`] create a thread; it first runs at
//!   the virtual instant it was spawned.
//! * [`SimCtx::advance`] moves the thread forward in virtual time.
//! * [`SimCtx::park`] blocks until another thread calls [`SimCtx::unpark`].
//! * Returning from the closure exits the thread.
//!
//! When the event queue drains, the engine shuts down remaining *daemon*
//! threads (infrastructure loops such as message handlers) by unwinding
//! them; a remaining parked **non-daemon** thread is reported as a
//! deadlock.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

use parking_lot::{Mutex, MutexGuard};

use crate::replay::ScheduleLog;
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated thread within one [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sim-thread-{}", self.0)
    }
}

/// Error returned by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while non-daemon threads were still parked;
    /// the named threads can never run again.
    Deadlock {
        /// Names of the parked non-daemon threads.
        parked: Vec<String>,
    },
    /// The configured event budget was exhausted, which usually indicates a
    /// livelock in the simulated system.
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { parked } => {
                write!(f, "simulation deadlock: threads parked forever: {parked:?}")
            }
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "simulation exceeded event budget of {budget} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Token unwound through a simulated thread when the engine shuts it down.
///
/// Library code never needs to touch this: the per-thread wrapper catches
/// it. It is public only so that `catch_unwind`-using callers can
/// distinguish engine shutdown from a genuine panic.
pub struct ShutdownToken;

/// One candidate event at a scheduling frontier — an event the driver
/// could legally accept next. All candidates handed to a policy are
/// pending at the *same* virtual instant; picking among them permutes a
/// same-timestamp tie, never reorders virtual time itself.
#[derive(Clone, Debug)]
pub struct ScheduleChoice {
    /// The thread the event would resume.
    pub tid: ThreadId,
    /// The thread's name (as given at spawn).
    pub name: String,
    /// `true` for a park-timeout timer firing, `false` for an ordinary
    /// resume (advance, unpark, first run).
    pub is_timer: bool,
}

/// Hook through which every nondeterministic decision of the engine is
/// routed: which same-instant event runs next ([`choose_event`]) and
/// auxiliary value choices raised by simulated code via
/// [`SimCtx::choose`] ([`choose_value`]).
///
/// The engine without a policy installed behaves byte-identically to
/// [`DefaultSchedulePolicy`] (always picks the lowest sequence number —
/// today's fixed heap order). Exploration tools install policies that
/// permute the ties to enumerate alternative schedules.
///
/// [`choose_event`]: SchedulePolicy::choose_event
/// [`choose_value`]: SchedulePolicy::choose_value
pub trait SchedulePolicy: Send {
    /// Picks which of `candidates` runs next. All candidates are pending
    /// at virtual instant `now` and are presented in queue order (lowest
    /// sequence number first), so returning `0` reproduces the default
    /// schedule. Out-of-range returns are clamped.
    fn choose_event(&mut self, now: SimTime, candidates: &[ScheduleChoice]) -> usize {
        let _ = (now, candidates);
        0
    }

    /// Resolves an `n`-way value choice raised by simulated code (e.g.
    /// which of several already-arrived messages to deliver first). `tag`
    /// identifies the choice site. Returning `0` reproduces the default
    /// behavior. Out-of-range returns are clamped.
    fn choose_value(&mut self, tag: &str, n: usize) -> usize {
        let _ = (tag, n);
        0
    }
}

/// The identity policy: always picks candidate `0`, reproducing the
/// engine's built-in `(time, seq)` heap order byte for byte. Installing
/// it is indistinguishable from installing no policy at all (enforced by
/// test).
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultSchedulePolicy;

impl SchedulePolicy for DefaultSchedulePolicy {}

/// Shared, cloneable handle to a [`SchedulePolicy`], installable via
/// [`Engine::set_schedule_policy`].
#[derive(Clone)]
pub struct SchedulePolicyHandle {
    inner: Arc<Mutex<Box<dyn SchedulePolicy>>>,
}

impl SchedulePolicyHandle {
    /// Wraps a policy for installation.
    pub fn new(policy: impl SchedulePolicy + 'static) -> Self {
        SchedulePolicyHandle {
            inner: Arc::new(Mutex::new(Box::new(policy))),
        }
    }

    fn choose_event(&self, now: SimTime, candidates: &[ScheduleChoice]) -> usize {
        self.inner.lock().choose_event(now, candidates)
    }

    fn choose_value(&self, tag: &str, n: usize) -> usize {
        self.inner.lock().choose_value(tag, n)
    }
}

impl std::fmt::Debug for SchedulePolicyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SchedulePolicyHandle(..)")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ParkState {
    /// Running or scheduled to run; not waiting for an unpark.
    Running,
    /// An unpark arrived while running; the next `park()` returns at once.
    Notified,
    /// Blocked in `park()`, no resume scheduled yet.
    Parked,
    /// Blocked in `park()` with a resume event already queued.
    ParkedScheduled,
}

/// What a sleeping simulated thread is woken with.
enum Turn {
    Go,
    Shutdown,
}

/// The outcome of one scheduling step: who acts next.
enum Next {
    /// This thread runs next.
    Resume(ThreadId),
    /// The event accepted at this instant for this thread crosses a
    /// sampler boundary: the driver samples, then resumes the thread.
    Sample(SimTime, ThreadId),
    /// The queue drained, the event budget ran out, a thread panicked, or
    /// a thread acknowledged its shutdown: the driver takes over.
    Stop,
}

struct ThreadSlot {
    name: String,
    daemon: bool,
    /// Set by whoever hands this thread its turn; taken when it wakes.
    turn: Option<Turn>,
    park: ParkState,
    exited: bool,
    /// Bumped on every `park`/`park_until` entry; a queued timer event
    /// whose epoch does not match is stale and is skipped.
    park_epoch: u64,
    /// Set when the thread is resumed by its own timer (deadline
    /// reached) rather than by an `unpark`.
    timed_out: bool,
    join: Option<JoinHandle<()>>,
}

/// Sentinel epoch marking an ordinary (non-timer) event in the queue.
const NORMAL_EVENT: u64 = u64::MAX;

#[derive(PartialEq, Eq)]
struct EventKey {
    time: SimTime,
    seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct State {
    clock: SimTime,
    next_seq: u64,
    next_tid: u64,
    queue: BinaryHeap<Reverse<(EventKey, ThreadId, u64)>>,
    threads: HashMap<ThreadId, ThreadSlot>,
    events_processed: u64,
    event_budget: u64,
    /// When present, every accepted scheduling decision is appended here
    /// (pure bookkeeping: recording never schedules, parks, or advances,
    /// so it cannot perturb the run it observes).
    schedule: Option<Arc<Mutex<ScheduleLog>>>,
    /// When present, same-instant event ties and `SimCtx::choose` calls
    /// are routed through this policy instead of the fixed heap order.
    policy: Option<SchedulePolicyHandle>,
    /// Taken out of the state while its callback runs on the driver.
    sampler: Option<Sampler>,
    /// The thread running [`Engine::run`].
    driver: Option<Thread>,
    /// The step a simulated thread handed the driver; taken when it wakes.
    driver_job: Option<Next>,
    /// The first panic message of a simulated thread.
    panic: Option<String>,
    /// Set once the driver shuts threads down: an exiting thread then
    /// only hands the turn back to the driver.
    stopping: bool,
}

impl State {
    fn slot(&mut self, tid: ThreadId) -> &mut ThreadSlot {
        self.threads
            .get_mut(&tid)
            .expect("unknown simulated thread")
    }

    /// Queues an event resuming `tid` at `at` (clamped to now). `epoch` is
    /// [`NORMAL_EVENT`] for an ordinary resume. A park-timeout event
    /// carries the epoch of its `park_until` call and only fires if the
    /// thread is still parked in that call when it is popped; otherwise it
    /// is discarded without touching the clock or the event counter.
    fn schedule(&mut self, at: SimTime, tid: ThreadId, epoch: u64) {
        let key = EventKey {
            time: at.max(self.clock),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.queue.push(Reverse((key, tid, epoch)));
    }

    /// Whether a popped timer event is still live: the thread must be
    /// parked in the same `park_until` call that queued it.
    fn timer_valid(&self, tid: ThreadId, epoch: u64) -> bool {
        self.threads
            .get(&tid)
            .is_some_and(|s| !s.exited && s.park_epoch == epoch && s.park == ParkState::Parked)
    }

    /// Accepts an event: advances the clock, counts it, and records it to
    /// the schedule log if recording is on. The single point every
    /// scheduling decision — default or policy-picked — flows through.
    fn accept(&mut self, time: SimTime, tid: ThreadId) {
        self.events_processed += 1;
        self.clock = time;
        if self.schedule.is_some() {
            let label = format!(
                "t={} {}",
                time.as_nanos(),
                self.threads
                    .get(&tid)
                    .map(|s| s.name.as_str())
                    .unwrap_or("?")
            );
            if let Some(log) = &self.schedule {
                log.lock().push(tid.0, label);
            }
        }
    }

    /// The scheduling step, run by the driver and by every yielding
    /// thread alike: checks the event budget, accepts the next live event
    /// and names who acts next.
    fn next(&mut self) -> Next {
        if self.events_processed >= self.event_budget {
            return Next::Stop;
        }
        match self.pick() {
            None => Next::Stop,
            Some((time, tid))
                if self
                    .sampler
                    .as_ref()
                    .is_some_and(|s| s.next_boundary <= time) =>
            {
                Next::Sample(time, tid)
            }
            Some((_, tid)) => self.resume(tid),
        }
    }

    /// Pops the earliest live event and accepts it — through the policy,
    /// if one is installed. Stale timers are discarded *before* the
    /// clock/event counter update, so runs that never time out are
    /// indistinguishable from runs without timers.
    fn pick(&mut self) -> Option<(SimTime, ThreadId)> {
        let first = loop {
            let Reverse((key, tid, epoch)) = self.queue.pop()?;
            if epoch == NORMAL_EVENT || self.timer_valid(tid, epoch) {
                break (key, tid, epoch);
            }
        };
        let (key, tid, epoch) = match self.policy.clone() {
            Some(policy) => pick_with_policy(self, &policy, first),
            None => first,
        };
        if epoch != NORMAL_EVENT {
            self.slot(tid).timed_out = true;
        }
        self.accept(key.time, tid);
        Some((key.time, tid))
    }

    /// Marks the thread of an accepted event running, or skips the event
    /// if that thread has already exited.
    fn resume(&mut self, tid: ThreadId) -> Next {
        let slot = self.slot(tid);
        if slot.exited {
            return self.next();
        }
        slot.park = ParkState::Running;
        Next::Resume(tid)
    }

    /// Gives the turn to whoever `next` names: wakes that simulated
    /// thread, or hands every other step to the driver.
    fn hand(&mut self, next: Next) {
        match next {
            Next::Resume(tid) => self.wake(tid, Turn::Go),
            job => {
                self.driver_job = Some(job);
                self.driver.as_ref().expect("engine is running").unpark();
            }
        }
    }

    fn wake(&mut self, tid: ThreadId, turn: Turn) {
        let slot = self.slot(tid);
        slot.turn = Some(turn);
        slot.join
            .as_ref()
            .expect("thread not joined")
            .thread()
            .unpark();
    }
}

/// The policy scheduling path: collects the full frontier (`first`, the
/// earliest live event, plus every other live event at its instant),
/// asks the policy which candidate runs, and re-queues the rest with
/// their original keys (they are re-validated when the next frontier is
/// built). The chosen event is accepted exactly as the default one is.
fn pick_with_policy(
    st: &mut State,
    policy: &SchedulePolicyHandle,
    first: (EventKey, ThreadId, u64),
) -> (EventKey, ThreadId, u64) {
    let time = first.0.time;
    let mut frontier = vec![first];
    // Candidates come off the min-heap in ascending sequence order, so
    // index 0 is exactly what the default path would have popped.
    while let Some(Reverse((key, _, _))) = st.queue.peek() {
        if key.time != time {
            break;
        }
        let Reverse((key, tid, epoch)) = st.queue.pop().expect("peeked entry exists");
        if epoch != NORMAL_EVENT && !st.timer_valid(tid, epoch) {
            continue;
        }
        frontier.push((key, tid, epoch));
    }
    let candidates: Vec<ScheduleChoice> = frontier
        .iter()
        .map(|(_, tid, epoch)| ScheduleChoice {
            tid: *tid,
            name: st
                .threads
                .get(tid)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "?".to_string()),
            is_timer: *epoch != NORMAL_EVENT,
        })
        .collect();
    let chosen = policy
        .choose_event(time, &candidates)
        .min(frontier.len() - 1);
    let picked = frontier.swap_remove(chosen);
    st.queue.extend(frontier.into_iter().map(Reverse));
    picked
}

/// A recurring virtual-time sampler installed via [`Engine::set_sampler`].
///
/// The sampler is a *driver-level* callback, not a queued event: when an
/// accepted event crosses a window boundary, the scheduling step hands
/// that event to the driver, which invokes the callback once for every
/// boundary at or before the accepted instant and only then resumes the
/// event's thread. Because it adds nothing to the event queue, touches no
/// timers, and runs while no simulated thread does, an installed sampler
/// is schedule-invisible — runs with and without one are byte-identical
/// (enforced by test).
struct Sampler {
    period: SimDuration,
    next_boundary: SimTime,
    callback: Box<dyn FnMut(SimTime) + Send>,
}

/// The discrete-event simulation engine. See the crate-level docs for
/// the execution model.
///
/// # Examples
///
/// ```
/// use dex_sim::{Engine, SimDuration, SimTime};
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let engine = Engine::new();
/// let hits = Arc::new(AtomicU64::new(0));
/// for i in 0..4 {
///     let hits = Arc::clone(&hits);
///     engine.spawn(format!("worker-{i}"), move |ctx| {
///         ctx.advance(SimDuration::from_micros(i + 1));
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// let end = engine.run().expect("no deadlock");
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(4));
/// ```
pub struct Engine {
    state: Arc<Mutex<State>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine with an effectively unlimited event budget.
    pub fn new() -> Self {
        Self::with_event_budget(u64::MAX)
    }

    /// Creates an engine that aborts with
    /// [`SimError::EventBudgetExhausted`] after processing `budget` events —
    /// a guard against livelocked simulations.
    pub fn with_event_budget(budget: u64) -> Self {
        Engine {
            state: Arc::new(Mutex::new(State {
                event_budget: budget,
                ..State::default()
            })),
        }
    }

    /// Turns on schedule recording: every scheduling decision the engine
    /// accepts (which thread ran, at what virtual time) is appended to
    /// the returned [`ScheduleLog`]. Read it after [`Engine::run`]
    /// finishes.
    ///
    /// Recording is pure observation — it adds no events, timers, or
    /// wakeups — so a recorded run takes exactly the same schedule as an
    /// unrecorded one. This is the substrate of the observability
    /// layer's bit-identity guarantee: two runs are the same run iff
    /// their recorded logs are byte-identical.
    pub fn record_schedule(&self, header: impl Into<String>) -> Arc<Mutex<ScheduleLog>> {
        let log = Arc::new(Mutex::new(ScheduleLog::new(header)));
        self.state.lock().schedule = Some(Arc::clone(&log));
        log
    }

    /// Installs a [`SchedulePolicy`]: every same-instant event tie (and
    /// every [`SimCtx::choose`] call) is resolved by the policy instead of
    /// the fixed `(time, seq)` heap order. With no policy installed — or
    /// with [`DefaultSchedulePolicy`] — the engine produces byte-identical
    /// schedules to builds that predate the hook.
    pub fn set_schedule_policy(&self, policy: SchedulePolicyHandle) {
        self.state.lock().policy = Some(policy);
    }

    /// Installs a recurring virtual-time sampler: `callback` is invoked
    /// with each window boundary `period, 2*period, 3*period, …` as the
    /// simulation clock crosses it. Windows are half-open `[k*period,
    /// (k+1)*period)` — an event at exactly the boundary belongs to the
    /// *next* window, so the callback for boundary `b` observes precisely
    /// the events that happened strictly before `b`.
    ///
    /// The callback runs on the driver thread while every simulated
    /// thread is suspended and the engine's scheduling state is unlocked:
    /// it may read any shared simulation data, but it cannot advance
    /// time, park, send, or spawn. Like schedule recording, sampling is
    /// pure observation — it adds no events and is byte-identical to a
    /// run without a sampler (enforced by test).
    ///
    /// Virtual instants with no events are never sampled on their own:
    /// boundaries fire lazily when the clock next moves past them, and
    /// any boundaries still pending when the queue drains are left to the
    /// caller (see [`Engine::run`]'s return value for the final clock).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_sampler<F>(&self, period: SimDuration, callback: F)
    where
        F: FnMut(SimTime) + Send + 'static,
    {
        assert!(!period.is_zero(), "sampler period must be positive");
        self.state.lock().sampler = Some(Sampler {
            period,
            next_boundary: SimTime::ZERO + period,
            callback: Box::new(callback),
        });
    }

    /// Spawns a non-daemon simulated thread that first runs at the current
    /// virtual time. The engine reports a deadlock if it can never finish.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_thread(&self.state, name.into(), false, f)
    }

    /// Spawns a *daemon* thread: an infrastructure loop (e.g. a message
    /// handler) that the engine silently shuts down once the event queue
    /// drains.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_thread(&self.state, name.into(), true, f)
    }

    /// Runs the simulation to completion.
    ///
    /// Returns the final virtual time.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if non-daemon threads remain parked when no
    ///   events are left.
    /// * [`SimError::EventBudgetExhausted`] if the event budget runs out.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated thread (so `assert!` inside
    /// simulated code fails the enclosing test).
    pub fn run(self) -> Result<SimTime, SimError> {
        let mut next = {
            let mut st = self.state.lock();
            st.driver = Some(std::thread::current());
            st.next()
        };
        // Threads hand each other the turn directly; the driver sleeps
        // until one hands it a step only the driver may take.
        loop {
            next = match next {
                Next::Stop => break,
                Next::Resume(_) => {
                    self.state.lock().hand(next);
                    self.wait_for_job()
                }
                Next::Sample(time, tid) => {
                    self.sample(time);
                    self.state.lock().resume(tid)
                }
            };
        }

        // The queue is drained (or we aborted). Shut down every thread that
        // is still alive; each acknowledges by handing the driver `Stop`
        // as it exits. Non-daemon ones count as deadlocked.
        let alive: Vec<(ThreadId, bool, String)> = {
            let mut st = self.state.lock();
            st.stopping = true;
            st.threads
                .iter()
                .filter(|(_, s)| !s.exited)
                .map(|(tid, s)| (*tid, s.daemon, s.name.clone()))
                .collect()
        };
        let mut deadlocked: Vec<String> = Vec::new();
        for (tid, daemon, name) in alive {
            self.state.lock().wake(tid, Turn::Shutdown);
            self.wait_for_job();
            if !daemon {
                deadlocked.push(name);
            }
        }

        // Join all real threads.
        let joins: Vec<JoinHandle<()>> = {
            let mut st = self.state.lock();
            st.threads
                .values_mut()
                .filter_map(|s| s.join.take())
                .collect()
        };
        for j in joins {
            let _ = j.join();
        }

        let mut st = self.state.lock();
        if let Some(msg) = st.panic.take() {
            drop(st);
            panic!("simulated thread panicked: {msg}");
        }
        if st.events_processed >= st.event_budget {
            return Err(SimError::EventBudgetExhausted {
                budget: st.event_budget,
            });
        }
        if !deadlocked.is_empty() {
            deadlocked.sort();
            return Err(SimError::Deadlock { parked: deadlocked });
        }
        Ok(st.clock)
    }

    /// Sleeps until a simulated thread hands the driver a step.
    fn wait_for_job(&self) -> Next {
        loop {
            if let Some(job) = self.state.lock().driver_job.take() {
                return job;
            }
            std::thread::park();
        }
    }

    /// Fires the sampler for every window boundary at or before `time`,
    /// the instant of the event just accepted, *before* that event's
    /// thread runs: the event belongs to the window starting at the last
    /// boundary, so a callback at boundary `b` sees exactly the state
    /// produced by events strictly before `b`. The state lock is released
    /// while the callback runs, so it may read shared simulation data.
    fn sample(&self, time: SimTime) {
        let mut s = self.state.lock().sampler.take().expect("sampler installed");
        while s.next_boundary <= time {
            let boundary = s.next_boundary;
            s.next_boundary = boundary + s.period;
            (s.callback)(boundary);
        }
        self.state.lock().sampler = Some(s);
    }
}

fn spawn_thread<F>(state: &Arc<Mutex<State>>, name: String, daemon: bool, f: F) -> ThreadId
where
    F: FnOnce(&SimCtx) + Send + 'static,
{
    let mut st = state.lock();
    let tid = ThreadId(st.next_tid);
    st.next_tid += 1;
    let ctx = SimCtx {
        tid,
        state: Arc::clone(state),
    };
    let tname = name.clone();
    let join = std::thread::Builder::new()
        .name(format!("{tname}#{}", tid.0))
        .stack_size(512 * 1024)
        .spawn(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                // Wait for the first turn before touching anything.
                ctx.wait_turn();
                f(&ctx)
            }));
            let panic = match result {
                Err(p) if !p.is::<ShutdownToken>() => Some(
                    p.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string()),
                ),
                _ => None,
            };
            ctx.exit(panic);
        })
        .expect("failed to spawn simulated thread");
    st.threads.insert(
        tid,
        ThreadSlot {
            name,
            daemon,
            turn: None,
            park: ParkState::Running,
            exited: false,
            park_epoch: 0,
            timed_out: false,
            join: Some(join),
        },
    );
    // First run at the current virtual instant.
    let now = st.clock;
    st.schedule(now, tid, NORMAL_EVENT);
    tid
}

/// Handle through which a simulated thread interacts with virtual time and
/// other simulated threads. Each thread receives a `&SimCtx` for its whole
/// lifetime; the context is bound to that thread and is not `Sync`.
pub struct SimCtx {
    tid: ThreadId,
    state: Arc<Mutex<State>>,
}

impl SimCtx {
    /// The identifier of this simulated thread.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.lock().clock
    }

    /// Number of events the engine has processed so far (a monotone,
    /// deterministic activity measure).
    pub fn events_processed(&self) -> u64 {
        self.state.lock().events_processed
    }

    /// Resolves an `n`-way nondeterministic value choice through the
    /// installed [`SchedulePolicy`] (`tag` names the choice site, e.g.
    /// `"fabric.recv"`). Returns `0` — the canonical deterministic pick —
    /// when no policy is installed or `n <= 1`. Never touches the
    /// schedule log or the event queue, so calling it is pure observation
    /// under the default policy.
    pub fn choose(&self, tag: &str, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let policy = self.state.lock().policy.clone();
        match policy {
            Some(p) => p.choose_value(tag, n).min(n - 1),
            None => 0,
        }
    }

    /// `true` when a [`SchedulePolicy`] is installed (exploration mode).
    /// Lets hot paths skip building candidate sets for [`SimCtx::choose`]
    /// when nobody is listening.
    pub fn has_schedule_policy(&self) -> bool {
        self.state.lock().policy.is_some()
    }

    /// Advances this thread's virtual time by `d`, letting other threads run
    /// in the meantime. `advance(ZERO)` yields the (virtual) CPU without
    /// moving the clock.
    pub fn advance(&self, d: SimDuration) {
        let mut st = self.state.lock();
        let at = st.clock + d;
        st.schedule(at, self.tid, NORMAL_EVENT);
        self.yield_turn(st);
    }

    /// Advances this thread to the absolute instant `t` (no-op if `t` is in
    /// the past).
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        self.advance(t.saturating_since(now));
    }

    /// Blocks this thread until another thread calls [`SimCtx::unpark`] with
    /// its id. If an unpark was already delivered since the last `park`,
    /// returns immediately (token semantics, like [`std::thread::park`]).
    pub fn park(&self) {
        let mut st = self.state.lock();
        let slot = st.slot(self.tid);
        slot.park_epoch += 1; // invalidate timers from earlier park_untils
        match slot.park {
            ParkState::Notified => {
                slot.park = ParkState::Running;
                return;
            }
            ParkState::Running => slot.park = ParkState::Parked,
            ParkState::Parked | ParkState::ParkedScheduled => {
                unreachable!("thread parked while already parked")
            }
        }
        self.yield_turn(st);
    }

    /// Like [`SimCtx::park`], but with a deadline: blocks until another
    /// thread calls [`SimCtx::unpark`] **or** virtual time reaches
    /// `deadline`, whichever comes first.
    ///
    /// Returns `true` if the deadline fired (timeout) and `false` if the
    /// thread was woken by an unpark. A pending unpark token makes it return
    /// `false` immediately, mirroring `park`'s token semantics. A deadline
    /// at or before the current instant still yields to the scheduler once
    /// before timing out.
    ///
    /// Timer events for parks that were resolved by an unpark are discarded
    /// without advancing the clock or the event counter, so code that never
    /// actually times out produces exactly the same schedule as code using
    /// plain `park`.
    pub fn park_until(&self, deadline: SimTime) -> bool {
        let mut st = self.state.lock();
        let slot = st.slot(self.tid);
        slot.park_epoch += 1;
        slot.timed_out = false;
        match slot.park {
            ParkState::Notified => {
                slot.park = ParkState::Running;
                return false;
            }
            ParkState::Running => slot.park = ParkState::Parked,
            ParkState::Parked | ParkState::ParkedScheduled => {
                unreachable!("thread parked while already parked")
            }
        }
        let epoch = slot.park_epoch;
        st.schedule(deadline, self.tid, epoch);
        self.yield_turn(st);
        let mut st = self.state.lock();
        let slot = st.slot(self.tid);
        std::mem::take(&mut slot.timed_out)
    }

    /// Wakes the thread `target`. If it is parked, it resumes at the current
    /// virtual time; otherwise its next `park()` returns immediately.
    pub fn unpark(&self, target: ThreadId) {
        let mut st = self.state.lock();
        let now = st.clock;
        let Some(slot) = st.threads.get_mut(&target) else {
            return;
        };
        if slot.exited {
            return;
        }
        match slot.park {
            ParkState::Running => slot.park = ParkState::Notified,
            ParkState::Notified | ParkState::ParkedScheduled => {}
            ParkState::Parked => {
                slot.park = ParkState::ParkedScheduled;
                st.schedule(now, target, NORMAL_EVENT);
            }
        }
    }

    /// Spawns a new non-daemon simulated thread starting at the current
    /// virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_thread(&self.state, name.into(), false, f)
    }

    /// Spawns a daemon (infrastructure) thread; see [`Engine::spawn_daemon`].
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_thread(&self.state, name.into(), true, f)
    }

    /// Yields the turn: runs the scheduling step on this thread, hands
    /// the turn to whoever it names, and sleeps until this thread's turn
    /// comes back. When the next event is this thread's own, it keeps
    /// running without a wake-up.
    fn yield_turn(&self, mut st: MutexGuard<'_, State>) {
        match st.next() {
            Next::Resume(tid) if tid == self.tid => return,
            next => st.hand(next),
        }
        drop(st);
        self.wait_turn();
    }

    /// Sleeps until this thread is handed its turn; unwinds with
    /// [`ShutdownToken`] when the engine shuts it down instead.
    fn wait_turn(&self) {
        loop {
            let turn = self.state.lock().slot(self.tid).turn.take();
            match turn {
                Some(Turn::Go) => return,
                Some(Turn::Shutdown) => panic::resume_unwind(Box::new(ShutdownToken)),
                None => std::thread::park(),
            }
        }
    }

    /// Marks this thread exited and passes the turn on. After a panic, or
    /// while the driver is shutting threads down, the turn goes back to
    /// the driver.
    fn exit(&self, panic: Option<String>) {
        let mut st = self.state.lock();
        st.slot(self.tid).exited = true;
        let next = if panic.is_some() || st.stopping {
            Next::Stop
        } else {
            st.next()
        };
        st.panic = st.panic.take().or(panic);
        st.hand(next);
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx").field("tid", &self.tid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn empty_engine_finishes_at_zero() {
        let engine = Engine::new();
        assert_eq!(engine.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_thread_advances_clock() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::from_micros(5));
            assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn threads_interleave_in_time_order() {
        let engine = Engine::new();
        let log = StdArc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("late", 30u64), ("early", 10), ("mid", 20)] {
            let log = StdArc::clone(&log);
            engine.spawn(name, move |ctx| {
                ctx.advance(SimDuration::from_nanos(delay));
                log.lock().push(name);
            });
        }
        engine.run().unwrap();
        assert_eq!(*log.lock(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn same_time_events_run_in_schedule_order() {
        let engine = Engine::new();
        let log = StdArc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let log = StdArc::clone(&log);
            engine.spawn(format!("t{i}"), move |ctx| {
                ctx.advance(SimDuration::from_nanos(7));
                log.lock().push(i);
            });
        }
        engine.run().unwrap();
        assert_eq!(*log.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn park_unpark_roundtrip() {
        let engine = Engine::new();
        let waiter_tid = StdArc::new(Mutex::new(None));
        let order = StdArc::new(Mutex::new(Vec::new()));
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            let order = StdArc::clone(&order);
            let tid_holder = StdArc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *tid_holder.lock() = Some(ctx.id());
                order.lock().push("waiting");
                ctx.park();
                order.lock().push("woken");
            });
        }
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            let order = StdArc::clone(&order);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                order.lock().push("waking");
                let tid = waiter_tid.lock().unwrap();
                ctx.unpark(tid);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.lock(), vec!["waiting", "waking", "woken"]);
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        let engine = Engine::new();
        engine.spawn("self-notify", |ctx| {
            // Unpark self while running: next park returns immediately.
            ctx.unpark(ctx.id());
            ctx.park();
            // A second park would block forever, proving the token was
            // consumed; we don't test that here (it would deadlock).
        });
        engine.run().unwrap();
    }

    #[test]
    fn deadlock_is_reported_with_thread_name() {
        let engine = Engine::new();
        engine.spawn("stuck-thread", |ctx| {
            ctx.park();
        });
        match engine.run() {
            Err(SimError::Deadlock { parked }) => {
                assert_eq!(parked, vec!["stuck-thread".to_string()])
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn daemon_threads_do_not_deadlock() {
        let engine = Engine::new();
        let ran = StdArc::new(AtomicU64::new(0));
        {
            let ran = StdArc::clone(&ran);
            engine.spawn_daemon("handler-loop", move |ctx| {
                ran.fetch_add(1, Ordering::Relaxed);
                loop {
                    ctx.park(); // shut down by the engine at drain
                }
            });
        }
        engine.spawn("work", |ctx| ctx.advance(SimDuration::from_micros(2)));
        let end = engine.run().unwrap();
        assert_eq!(end, SimTime::from_nanos(2_000));
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn spawn_from_sim_thread_starts_at_now() {
        let engine = Engine::new();
        let seen = StdArc::new(Mutex::new(Vec::new()));
        {
            let seen = StdArc::clone(&seen);
            engine.spawn("parent", move |ctx| {
                ctx.advance(SimDuration::from_micros(3));
                let seen2 = StdArc::clone(&seen);
                ctx.spawn("child", move |ctx| {
                    seen2.lock().push(ctx.now());
                });
                ctx.advance(SimDuration::from_micros(1));
                seen.lock().push(ctx.now());
            });
        }
        engine.run().unwrap();
        assert_eq!(
            *seen.lock(),
            vec![SimTime::from_nanos(3_000), SimTime::from_nanos(4_000)]
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_in_sim_thread_propagates() {
        let engine = Engine::new();
        engine.spawn("bomber", |_ctx| panic!("boom"));
        let _ = engine.run();
    }

    #[test]
    fn event_budget_detects_livelock() {
        // The spinner is the only thread, so every `advance(ZERO)` is a
        // self-handoff: the budget must still stop it at exactly 100.
        let engine = Engine::with_event_budget(100);
        let log = engine.record_schedule("livelock");
        let seen = StdArc::new(AtomicU64::new(0));
        {
            let seen = StdArc::clone(&seen);
            engine.spawn("spinner", move |ctx| loop {
                ctx.advance(SimDuration::ZERO);
                seen.store(ctx.events_processed(), Ordering::Relaxed);
            });
        }
        match engine.run() {
            Err(SimError::EventBudgetExhausted { budget }) => assert_eq!(budget, 100),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(labels(&log), vec!["t=0 spinner"; 100]);
    }

    #[test]
    fn determinism_same_run_same_trace() {
        fn run_once() -> Vec<(u64, u64)> {
            let engine = Engine::new();
            let log = StdArc::new(Mutex::new(Vec::new()));
            for i in 0..10u64 {
                let log = StdArc::clone(&log);
                engine.spawn(format!("t{i}"), move |ctx| {
                    for k in 0..5 {
                        ctx.advance(SimDuration::from_nanos((i * 7 + k * 13) % 29 + 1));
                        log.lock().push((i, ctx.now().as_nanos()));
                    }
                });
            }
            engine.run().unwrap();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn schedule_recording_is_pure_observation() {
        fn run_once(record: bool) -> (SimTime, Option<String>) {
            let engine = Engine::new();
            let log = record.then(|| engine.record_schedule("unit"));
            for i in 0..4u64 {
                engine.spawn(format!("t{i}"), move |ctx| {
                    for k in 0..3 {
                        ctx.advance(SimDuration::from_nanos((i * 11 + k * 5) % 17 + 1));
                    }
                });
            }
            let end = engine.run().unwrap();
            (end, log.map(|l| l.lock().to_text()))
        }
        let (plain_end, none) = run_once(false);
        let (rec_end, text_a) = run_once(true);
        let (_, text_b) = run_once(true);
        assert!(none.is_none());
        assert_eq!(plain_end, rec_end, "recording must not change the run");
        let text_a = text_a.unwrap();
        assert_eq!(text_a, text_b.unwrap(), "recorded runs are reproducible");
        let log = ScheduleLog::parse(&text_a).unwrap();
        assert!(!log.is_empty());
        assert!(log.steps()[0].label.starts_with("t="));
    }

    fn policy_workload(engine: &Engine) {
        // A mix of same-time spawns (t=0 ties), park/unpark, and a
        // park_until whose timer goes stale — every choice-point class.
        let waiter_tid = StdArc::new(Mutex::new(None));
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.lock() = Some(ctx.id());
                let timed_out = ctx.park_until(SimTime::from_nanos(90_000));
                assert!(!timed_out);
                ctx.advance(SimDuration::from_nanos(3));
            });
        }
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                let tid = waiter_tid.lock().unwrap();
                ctx.unpark(tid);
            });
        }
        for i in 0..3u64 {
            engine.spawn(format!("t{i}"), move |ctx| {
                for k in 0..4 {
                    ctx.advance(SimDuration::from_nanos((i * 5 + k * 3) % 11 + 1));
                }
            });
        }
    }

    #[test]
    fn default_policy_is_byte_identical_to_no_policy() {
        fn run_once(install: bool) -> (SimTime, String) {
            let engine = Engine::new();
            let log = engine.record_schedule("policy-identity");
            if install {
                engine.set_schedule_policy(SchedulePolicyHandle::new(DefaultSchedulePolicy));
            }
            policy_workload(&engine);
            let end = engine.run().unwrap();
            let text = log.lock().to_text();
            (end, text)
        }
        let (plain_end, plain_text) = run_once(false);
        let (policy_end, policy_text) = run_once(true);
        assert_eq!(plain_end, policy_end);
        assert_eq!(plain_text, policy_text, "default policy must not perturb");
        assert!(!plain_text.is_empty());
    }

    #[test]
    fn policy_workload_schedule_matches_fixture() {
        // Pins the exact accepted-event order of `policy_workload`: an
        // engine change that moves a single event fails here.
        let engine = Engine::new();
        let log = engine.record_schedule("policy-workload");
        policy_workload(&engine);
        engine.run().unwrap();
        let text = log.lock().to_text();
        assert_eq!(
            text,
            include_str!("../tests/fixtures/policy_workload.schedule")
        );
    }

    #[test]
    fn policy_can_flip_same_time_ties() {
        struct LastPick;
        impl SchedulePolicy for LastPick {
            fn choose_event(&mut self, _now: SimTime, candidates: &[ScheduleChoice]) -> usize {
                candidates.len() - 1
            }
        }
        fn run_once(flip: bool) -> Vec<&'static str> {
            let engine = Engine::new();
            if flip {
                engine.set_schedule_policy(SchedulePolicyHandle::new(LastPick));
            }
            let order = StdArc::new(Mutex::new(Vec::new()));
            for name in ["a", "b", "c"] {
                let order = StdArc::clone(&order);
                // No advance: the t=0 spawn tie alone decides the order.
                engine.spawn(name, move |_ctx| {
                    order.lock().push(name);
                });
            }
            engine.run().unwrap();
            let v = order.lock().clone();
            v
        }
        assert_eq!(run_once(false), vec!["a", "b", "c"]);
        assert_eq!(run_once(true), vec!["c", "b", "a"]);
    }

    #[test]
    fn policy_sees_candidate_names_and_timer_flags() {
        struct Spy(StdArc<Mutex<Vec<(String, bool)>>>);
        impl SchedulePolicy for Spy {
            fn choose_event(&mut self, _now: SimTime, candidates: &[ScheduleChoice]) -> usize {
                if candidates.len() > 1 {
                    self.0
                        .lock()
                        .extend(candidates.iter().map(|c| (c.name.clone(), c.is_timer)));
                }
                0
            }
        }
        let engine = Engine::new();
        let seen = StdArc::new(Mutex::new(Vec::new()));
        engine.set_schedule_policy(SchedulePolicyHandle::new(Spy(StdArc::clone(&seen))));
        engine.spawn("left", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        engine.spawn("right", |ctx| ctx.advance(SimDuration::from_nanos(2)));
        engine.run().unwrap();
        let seen = seen.lock();
        // The t=0 spawn tie exposes both threads as non-timer candidates.
        assert!(seen.contains(&("left".to_string(), false)), "{seen:?}");
        assert!(seen.contains(&("right".to_string(), false)), "{seen:?}");
    }

    #[test]
    fn choose_routes_through_policy_and_defaults_to_zero() {
        struct PickOne;
        impl SchedulePolicy for PickOne {
            fn choose_value(&mut self, tag: &str, n: usize) -> usize {
                assert_eq!(tag, "test.choice");
                assert_eq!(n, 3);
                1
            }
        }
        let engine = Engine::new();
        let picks = StdArc::new(Mutex::new(Vec::new()));
        {
            let picks = StdArc::clone(&picks);
            engine.spawn("chooser", move |ctx| {
                picks.lock().push(ctx.choose("test.choice", 3));
                picks.lock().push(ctx.choose("test.choice", 1)); // n<=1: no policy call
            });
        }
        engine.set_schedule_policy(SchedulePolicyHandle::new(PickOne));
        engine.run().unwrap();
        assert_eq!(*picks.lock(), vec![1, 0]);

        let engine = Engine::new();
        let got = StdArc::new(Mutex::new(None));
        {
            let got = StdArc::clone(&got);
            engine.spawn("no-policy", move |ctx| {
                assert!(!ctx.has_schedule_policy());
                *got.lock() = Some(ctx.choose("test.choice", 5));
            });
        }
        engine.run().unwrap();
        assert_eq!(*got.lock(), Some(0));
    }

    #[test]
    fn sampler_fires_at_boundaries_and_sees_prefix_state() {
        // Thread bumps a counter at t = 4, 8, 12, 16, 20 µs. With a 10µs
        // window, boundary 10µs must see the bumps strictly before it
        // (two), and boundary 20µs must NOT see the bump at exactly 20µs
        // (half-open windows: the boundary event is in the next window).
        let engine = Engine::new();
        let counter = StdArc::new(AtomicU64::new(0));
        let samples = StdArc::new(Mutex::new(Vec::new()));
        {
            let counter = StdArc::clone(&counter);
            let samples = StdArc::clone(&samples);
            engine.set_sampler(SimDuration::from_micros(10), move |boundary| {
                samples
                    .lock()
                    .push((boundary.as_nanos(), counter.load(Ordering::Relaxed)));
            });
        }
        {
            let counter = StdArc::clone(&counter);
            engine.spawn("worker", move |ctx| {
                for _ in 0..5 {
                    ctx.advance(SimDuration::from_micros(4));
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(*samples.lock(), vec![(10_000, 2), (20_000, 4)]);
    }

    #[test]
    fn sampler_catches_up_over_idle_gaps() {
        // One event far past several boundaries: every skipped boundary
        // fires, in order, before the event's thread resumes.
        let engine = Engine::new();
        let samples = StdArc::new(Mutex::new(Vec::new()));
        {
            let samples = StdArc::clone(&samples);
            engine.set_sampler(SimDuration::from_micros(1), move |boundary| {
                samples.lock().push(boundary.as_nanos());
            });
        }
        engine.spawn("jumper", |ctx| ctx.advance(SimDuration::from_micros(3)));
        engine.run().unwrap();
        // t=0 spawn event fires no boundary; the jump to 3µs fires 1, 2, 3.
        assert_eq!(*samples.lock(), vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn sampler_is_schedule_invisible() {
        fn run_once(sample: bool) -> (SimTime, String) {
            let engine = Engine::new();
            let log = engine.record_schedule("sampler-identity");
            if sample {
                engine.set_sampler(SimDuration::from_nanos(7), |_| {});
            }
            policy_workload(&engine);
            let end = engine.run().unwrap();
            let text = log.lock().to_text();
            (end, text)
        }
        let (plain_end, plain_text) = run_once(false);
        let (sampled_end, sampled_text) = run_once(true);
        assert_eq!(plain_end, sampled_end);
        assert_eq!(
            plain_text, sampled_text,
            "an installed sampler must not perturb the schedule"
        );
        assert!(!plain_text.is_empty());
    }

    #[test]
    #[should_panic(expected = "sampler period must be positive")]
    fn zero_period_sampler_is_rejected() {
        let engine = Engine::new();
        engine.set_sampler(SimDuration::ZERO, |_| {});
    }

    #[test]
    fn park_until_times_out_at_deadline() {
        let engine = Engine::new();
        engine.spawn("sleeper", |ctx| {
            let timed_out = ctx.park_until(SimTime::from_nanos(5_000));
            assert!(timed_out);
            assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn park_until_woken_early_returns_false_and_discards_timer() {
        let engine = Engine::new();
        let waiter_tid = StdArc::new(Mutex::new(None));
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.lock() = Some(ctx.id());
                let timed_out = ctx.park_until(SimTime::from_nanos(100_000));
                assert!(!timed_out);
                assert_eq!(ctx.now(), SimTime::from_nanos(1_000));
            });
        }
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                let tid = waiter_tid.lock().unwrap();
                ctx.unpark(tid);
            });
        }
        // The stale timer must not drag the final clock out to 100µs.
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn park_until_consumes_pending_unpark_token() {
        let engine = Engine::new();
        engine.spawn("self-notify", |ctx| {
            ctx.unpark(ctx.id());
            let timed_out = ctx.park_until(SimTime::from_nanos(50_000));
            assert!(!timed_out);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn park_after_timed_out_park_until_still_works() {
        let engine = Engine::new();
        let waiter_tid = StdArc::new(Mutex::new(None));
        let order = StdArc::new(Mutex::new(Vec::new()));
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            let order = StdArc::clone(&order);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.lock() = Some(ctx.id());
                assert!(ctx.park_until(SimTime::from_nanos(1_000)));
                order.lock().push("timed-out");
                ctx.park();
                order.lock().push("woken");
            });
        }
        {
            let waiter_tid = StdArc::clone(&waiter_tid);
            let order = StdArc::clone(&order);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(2));
                order.lock().push("waking");
                let tid = waiter_tid.lock().unwrap();
                ctx.unpark(tid);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.lock(), vec!["timed-out", "waking", "woken"]);
    }

    #[test]
    fn park_until_past_deadline_fires_at_now() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // Deadline in the past: clamped to now, still a clean timeout.
            assert!(ctx.park_until(SimTime::from_nanos(1)));
            assert_eq!(ctx.now(), SimTime::from_nanos(10_000));
        });
        engine.run().unwrap();
    }

    #[test]
    fn sleep_until_past_is_noop() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            ctx.sleep_until(SimTime::from_nanos(1)); // in the past
            assert_eq!(ctx.now(), SimTime::from_nanos(10_000));
            ctx.sleep_until(SimTime::from_nanos(20_000));
            assert_eq!(ctx.now(), SimTime::from_nanos(20_000));
        });
        engine.run().unwrap();
    }

    /// The recorded schedule as its step labels.
    fn labels(log: &Arc<Mutex<ScheduleLog>>) -> Vec<String> {
        log.lock().steps().iter().map(|s| s.label.clone()).collect()
    }

    #[test]
    fn panic_in_a_thread_resumed_by_another_thread_propagates() {
        // `bomber` is resumed by `first`'s handoffs (its first run, then
        // the exit of `first`), never by the driver, before it panics.
        let engine = Engine::new();
        let log = engine.record_schedule("panic-handoff");
        engine.spawn("first", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        engine.spawn("bomber", |ctx| {
            ctx.advance(SimDuration::from_nanos(2));
            panic!("handed-off boom");
        });
        let payload = panic::catch_unwind(AssertUnwindSafe(|| engine.run())).unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("handed-off boom"), "{msg}");
        assert_eq!(
            labels(&log),
            vec!["t=0 first", "t=0 bomber", "t=1 first", "t=2 bomber"]
        );
    }

    #[test]
    fn park_until_resumed_by_its_own_timer_keeps_running() {
        // When `sleeper` parks, its own timer (5µs) is the next event, so
        // the timeout is a self-handoff with no other thread in between.
        let engine = Engine::new();
        let log = engine.record_schedule("self-timer");
        engine.spawn("late", |ctx| ctx.advance(SimDuration::from_micros(10)));
        engine.spawn("sleeper", |ctx| {
            assert!(ctx.park_until(SimTime::from_nanos(5_000)));
            assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(10_000));
        assert_eq!(
            labels(&log),
            vec!["t=0 late", "t=0 sleeper", "t=5000 sleeper", "t=10000 late"]
        );
    }

    #[test]
    fn exit_hands_off_to_a_thread_that_never_ran() {
        let engine = Engine::new();
        let log = engine.record_schedule("exit-to-new");
        let child_start = StdArc::new(Mutex::new(None));
        {
            let child_start = StdArc::clone(&child_start);
            engine.spawn("parent", move |ctx| {
                ctx.advance(SimDuration::from_nanos(1));
                // The parent exits right after the spawn: its exit step
                // picks the child's first run.
                ctx.spawn("child", move |ctx| {
                    *child_start.lock() = Some(ctx.now());
                    ctx.advance(SimDuration::from_nanos(3));
                });
            });
        }
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(4));
        assert_eq!(*child_start.lock(), Some(SimTime::from_nanos(1)));
        assert_eq!(
            labels(&log),
            vec!["t=0 parent", "t=1 parent", "t=1 child", "t=4 child"]
        );
    }

    #[test]
    fn sampler_fires_before_a_self_handoff_continues() {
        // A lone worker hands every event to itself; an event crossing a
        // boundary must go through the driver, which samples before the
        // worker runs on.
        let engine = Engine::new();
        let log = engine.record_schedule("self-sample");
        let order = StdArc::new(Mutex::new(Vec::new()));
        {
            let order = StdArc::clone(&order);
            engine.set_sampler(SimDuration::from_micros(10), move |b| {
                order.lock().push(format!("sample@{}", b.as_nanos()));
            });
        }
        {
            let order = StdArc::clone(&order);
            engine.spawn("worker", move |ctx| {
                for _ in 0..5 {
                    ctx.advance(SimDuration::from_micros(4));
                    order.lock().push(format!("run@{}", ctx.now().as_nanos()));
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec![
                "run@4000",
                "run@8000",
                "sample@10000",
                "run@12000",
                "run@16000",
                "sample@20000",
                "run@20000",
            ]
        );
        let expected: Vec<String> = (0..6).map(|k| format!("t={} worker", k * 4_000)).collect();
        assert_eq!(labels(&log), expected);
    }

    #[test]
    fn daemon_shuts_down_after_many_direct_handoffs() {
        struct Unwound(StdArc<AtomicU64>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        const ROUNDS: u64 = 500;
        let engine = Engine::new();
        let log = engine.record_schedule("daemon-handoffs");
        let pinger = StdArc::new(Mutex::new(None));
        let echoes = StdArc::new(AtomicU64::new(0));
        let unwound = StdArc::new(AtomicU64::new(0));
        let echo = {
            let (pinger, echoes, unwound) = (
                StdArc::clone(&pinger),
                StdArc::clone(&echoes),
                StdArc::clone(&unwound),
            );
            engine.spawn_daemon("echo", move |ctx| {
                let _guard = Unwound(unwound);
                loop {
                    ctx.park(); // shut down by the engine at drain
                    echoes.fetch_add(1, Ordering::Relaxed);
                    ctx.unpark(pinger.lock().expect("pinger registered"));
                }
            })
        };
        {
            let pinger = StdArc::clone(&pinger);
            engine.spawn("pinger", move |ctx| {
                *pinger.lock() = Some(ctx.id());
                for _ in 0..ROUNDS {
                    ctx.advance(SimDuration::from_nanos(1));
                    ctx.unpark(echo);
                    ctx.park();
                }
            });
        }
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(ROUNDS));
        assert_eq!(echoes.load(Ordering::Relaxed), ROUNDS);
        assert_eq!(unwound.load(Ordering::Relaxed), 1, "daemon unwound once");
        let labels = labels(&log);
        // Two first runs, then per round: the pinger's advance, the echo,
        // and the pinger's wake-up.
        assert_eq!(labels.len() as u64, 2 + 3 * ROUNDS);
        assert_eq!(
            labels[..5],
            [
                "t=0 echo",
                "t=0 pinger",
                "t=1 pinger",
                "t=1 echo",
                "t=1 pinger"
            ]
        );
        assert_eq!(labels.last().map(String::as_str), Some("t=500 pinger"));
    }
}
