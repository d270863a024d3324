//! The session-router cluster host behind every mode but batch: online
//! correlation (the follow-up paper's "online at scale" requirement),
//! in one thread or in parallel.
//!
//! Candidate selection is inherently sequential *within* one
//! access-point session, but sessions are independent: every activity
//! of a request — its BEGIN at the access point, the internal
//! SEND/RECEIVE cascade, the final END — belongs to exactly one client
//! session. The cluster host [`Cluster`] exploits that:
//!
//! ```text
//!            reader thread                     worker threads
//!  text ─→ parse (zero-copy) ─→ classify ─→ ┌─ shard 0: StreamingCorrelator ─┐
//!            + filter + route                ├─ shard 1: StreamingCorrelator ─┤─→ merge
//!            (session affinity)              ├─ ...                           │  (canonical
//!                                            └─ shard N-1 ──────────────────-┘   re-sequence)
//! ```
//!
//! * The **reader** parses borrowed [`RawRecordRef`]s (no per-record
//!   string allocations; hostnames/programs are interned), classifies
//!   and filters them, and routes each surviving activity to a shard by
//!   **client session**: the `src ip:port` of the BEGIN at the access
//!   point, consistent-hashed over the shard count. Internal activities
//!   follow their session through channel/context affinity tracking
//!   (the reader is sequential, so the routing is deterministic).
//! * Each **worker** owns a direct-delivery [`StreamingCorrelator`]
//!   and correlates its shard's sessions. Three backends host them:
//!   - *inline* (`Mode::Streaming`): one engine in the caller's thread,
//!     fed each routed message at once — no thread, channel or wire. A
//!     session routes at every poll and returns the CAGs sealed so far.
//!   - *threads* (`Mode::Sharded`): worker threads of this process, fed
//!     through bounded SPSC channels (back-pressure bounds memory) while
//!     the reader keeps parsing.
//!   - *peers* (`Mode::Distributed`, see [`crate::dist`]): worker
//!     blocks behind PTDC router peers.
//!
//!   The thread and peer backends see the same batches, and every
//!   backend sees the same message sequence per shard, so the merged
//!   output is the same.
//! * The **merge** stage re-sequences the union of all sealed CAGs into
//!   a canonical deterministic order — sorted by CAG root (the BEGIN's
//!   timestamp, context and channel), ids renumbered sequentially — so
//!   the output is byte-identical **regardless of shard count or thread
//!   interleaving**: `--shards 1` and `--shards 64` produce the same
//!   bytes. (One exception: a [`CorrelatorConfig::max_seal_lag`] bound
//!   is evaluated against each shard's private candidate counter, so
//!   *whether* a lulled path gets force-sealed before a trailing END
//!   chunk arrives can depend on the partition — the SLO knob trades
//!   cross-shard-count invariance for emission latency. Output for a
//!   **fixed** shard count stays fully deterministic.)
//!
//! ## Relation to the single-shard paths
//!
//! Per-CAG *content* (vertices, edges, sizes, tags, latencies — and
//! therefore every pattern/analysis result) is identical to the
//! single-threaded [`Correlator`](crate::correlator::Correlator): a
//! session's records meet exactly the same ranker/engine state whether
//! or not unrelated sessions share the instance. Two well-understood
//! presentation differences remain, both pinned by tests:
//!
//! * **Stream order**: the batch path emits CAGs in *seal* order, which
//!   depends on where 64-candidate sampling boundaries fall in the
//!   global candidate sequence — a quantity that only exists when all
//!   sessions share one correlator. The sharded path instead emits in
//!   the canonical root order above. On single-frontend-host logs the
//!   renumbered ids coincide with the batch ids (both are BEGIN order),
//!   so sorting the batch output by id yields the sharded bytes.
//! * **Cross-session counters**: diagnostics counting interactions
//!   *between* sessions (`reuse_suppressed_edges` when a pool thread's
//!   previous session lives in another shard) can differ from the
//!   single-shard run; additive per-session counters (records, CAGs,
//!   merges, noise discards) sum exactly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::access::Classifier;
use crate::activity::{Activity, ActivityType, ContextId, EndpointV4};
use crate::cag::Cag;
use crate::correlator::StreamingCorrelator;
use crate::correlator::{
    CorrelationOutput, CorrelatorConfig, DEFAULT_CHANNEL_IDLE_HORIZON, DEFAULT_LANE_SETTLE_DEPTH,
};
use crate::error::TraceError;
use crate::fasthash::{FxBuildHasher, FxHashMap};
use crate::filter::FilterSet;
use crate::intern::Interner;
use crate::metrics::CorrelatorMetrics;
use crate::pipeline::{Mode, PipelineConfig};
use crate::raw::{RangeDedup, RawRecord, RawRecordRef};

/// Activities per channel message or Claim frame (amortizes channel
/// synchronization); every backend sees the same batch boundaries.
pub(crate) const BATCH_RECORDS: usize = 4_096;

/// Bounded channel capacity, in batches, per shard (back-pressure: the
/// reader blocks instead of buffering unboundedly ahead of a slow
/// worker).
const CHANNEL_BATCHES: usize = 8;

/// Upper bound for `shards = 0` (auto): beyond this the reader is the
/// bottleneck and more workers only cost memory.
pub(crate) const AUTO_SHARD_CAP: usize = 16;

/// Hard cap on explicit shard counts: each shard is an OS thread plus
/// a full correlator, and the single reader cannot feed more than this
/// anyway. Requests beyond it are a configuration error, not a spawn
/// storm.
pub const MAX_SHARDS: usize = 256;

/// How many reader-side noise victims are kept for diagnostics.
const NOISE_SAMPLE_CAP: usize = 32;

/// Google's jump consistent hash: maps `key` to a bucket in `[0, n)`
/// such that growing `n` only moves ~`1/n` of the keys — resharding a
/// live deployment migrates the minimum number of sessions.
fn jump_hash(mut key: u64, n: u32) -> u32 {
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(n) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b.wrapping_add(1)) as f64) * ((1u64 << 31) as f64)
            / (((key >> 33).wrapping_add(1)) as f64)) as i64;
    }
    b as u32
}

/// An undirected connection key: both directions of a TCP connection
/// map to the same entry, so chatter with no session affinity routes
/// both its directions to one shard.
type ConnKey = (EndpointV4, EndpointV4);

fn conn_key(src: EndpointV4, dst: EndpointV4) -> ConnKey {
    if (src.ip, src.port) <= (dst.ip, dst.port) {
        (src, dst)
    } else {
        (dst, src)
    }
}

/// One pending send's byte claim on a directed channel.
#[derive(Debug, Clone, Copy)]
struct ClaimEntry {
    /// Shard of the session that produced the send.
    shard: u32,
    /// True when the send producing this claim was an orphan-chain
    /// record dropped reader-side (never shipped to its shard). The
    /// claim still occupies its FIFO slot so byte accounting stays
    /// identical; a receive consuming only dropped claims is dropped
    /// too.
    dropped: bool,
    /// Unreceived bytes remaining of this claim.
    bytes: u64,
    /// `TCP_TRACE v2`: the claim's remaining stream byte range
    /// `[start, end)`. When both sides of a channel carry `seq=`
    /// offsets, receives match claims by range overlap instead of
    /// blind FIFO byte counting — robust to records lost by a
    /// partial-capture sniffer, which would otherwise permanently
    /// shift the FIFO.
    range: Option<(u64, u64)>,
}

/// Per-directed-channel claim state — the router's miniature `mmap`,
/// fused with the staged-send census so the hot path touches one map.
#[derive(Debug, Default)]
struct Claims {
    /// FIFO of per-send claims; TCP delivers bytes in order per
    /// direction, so a RECEIVE belongs to the shard of the front claim
    /// (the same soundness argument as the engine's size-based
    /// SEND/RECEIVE matching).
    queue: VecDeque<ClaimEntry>,
    /// SEND activities staged but not yet routed: the future claims a
    /// deferring RECEIVE may wait for.
    staged: u32,
    /// Shard of the most recent send on this channel, kept after the
    /// queue drains so byte-count drift (coalesced or forced receives)
    /// still routes follow-up records to the shard holding the
    /// channel's engine state. `None` until a send is first routed.
    last: Option<u32>,
    /// Highest stream offset any **staged or routed** send has ever
    /// reached. Send offsets on a channel are monotone, so every
    /// future send starts at or above this — which lets a receive
    /// prove that a coverage deficit below it is **permanent** (the
    /// send records were lost to partial capture) and resolve
    /// immediately instead of deferring into a lane-graph deadlock.
    max_seq_end: u64,
    /// Router record count when the channel was last touched (staged
    /// send, routed send, or decided receive) — the idle-GC clock.
    last_touch: u64,
}

/// Which lanes stage a given endpoint role (sender / receiver) of a
/// directed channel. Almost every channel has exactly one entity per
/// role (`order: None`, the fast path); connection pooling breaks that
/// — many httpd processes send on one pooled channel, and consecutive
/// requests are read by different connector threads. Claims must then
/// be produced and consumed in the endpoint host's local-time order
/// (TCP's byte order), not in lane-drain order, or one session's bytes
/// would be claimed for another's shard.
#[derive(Debug)]
struct RoleOrder {
    /// The single lane seen staging this role so far (exclusive mode).
    lane: usize,
    /// Shared mode: multiset of staged `(local time, lane)` activities
    /// of this role; only the minimum may produce/consume claims.
    order: Option<BTreeMap<(crate::activity::LocalTime, usize), u32>>,
}

/// One message of a shard's ordered input stream. Routing is not just
/// partitioning: the batch engine's context map follows each execution
/// entity *across* sessions, so when an entity's records migrate to a
/// different shard the old shard must drop its now-stale binding —
/// otherwise a later record landing there by hash could resolve (and
/// merge into) a context chain the batch engine already moved past.
#[derive(Debug, Clone)]
pub(crate) enum ShardMsg {
    /// A routed activity.
    Act(Activity),
    /// Drop the engine's `cmap` binding for this entity: its next
    /// record went to a different shard (or into a reader-side-dropped
    /// orphan chain), exactly when the batch engine would re-bind.
    ForgetCtx(ContextId),
}

/// Routing decision for one RECEIVE.
enum RecvDecision {
    /// Route to this shard. `binds` mirrors whether the engine will
    /// re-bind the receiving entity's context to a new vertex: a
    /// receive that only trims the front claim (a partial segment of a
    /// larger message) merges tags into the existing vertex and leaves
    /// the context map untouched.
    Shard { shard: u32, binds: bool },
    /// Every claim this receive consumed was a dropped orphan-chain
    /// send: the batch engine would merge this receive into the same
    /// never-emitted orphan chain, so it is dropped reader-side too.
    /// The shard is kept for the lane's affinity bookkeeping.
    Orphan(u32),
    /// Wait for the claiming send to be routed.
    Defer,
    /// No traced send on this channel exists anywhere: `is_noise`.
    Noise,
}

/// One execution entity's staged (not yet routed) activities, in the
/// thread's own serial order.
#[derive(Debug)]
struct CtxLane {
    buf: VecDeque<Activity>,
    /// Shard of the session this entity is currently working for.
    affinity: Option<u32>,
    /// Shard whose engine holds this entity's live `cmap` binding (its
    /// last *dispatched, binding* record). `None` when no engine holds
    /// one — fresh lane, or the entity's chain went into a reader-side
    /// dropped orphan chain. Differs from `affinity` exactly when the
    /// last record did not re-bind the context (partial receive, or a
    /// dropped record). Migrating the binding to another shard emits
    /// [`ShardMsg::ForgetCtx`] to the old one.
    bound: Option<u32>,
    /// This entity currently extends an orphan chain (its last routed
    /// record was dropped reader-side) — the reader's mirror of the
    /// engine's `cmap = Orphan` state. Cleared by any dispatched
    /// record (a BEGIN/END, or a receive consuming real claims).
    noise: bool,
    /// Key this lane is registered under in the runnable set (the head
    /// timestamp at enqueue time), `None` when not enqueued. Staging
    /// can insert a record *before* the current head, so the key must
    /// be re-derived whenever the head changes.
    qkey: Option<crate::activity::LocalTime>,
    /// Channel this lane is currently registered as a waiter on, so
    /// repeated wake→re-defer cycles do not grow the waiter lists.
    waiting_on: Option<crate::activity::Channel>,
}

/// Deterministic session router: a lightweight message-matching
/// pre-pass that assigns every activity to the shard owning its client
/// session, using only reader-side sequential state. It subsumes
/// candidate selection for the sharded pipeline — workers deliver its
/// output straight to their engines:
///
/// * A BEGIN/END names its session directly: the client endpoint at
///   the access point, consistent-hashed to a shard.
/// * A SEND inherits its thread's current session (claimed by the
///   BEGIN, or by the RECEIVE that handed the request to the thread)
///   and *claims* its channel's bytes for that shard.
/// * A RECEIVE resolves only when previously routed claims fully cover
///   it (Rule 1's byte-exactness), consuming them FIFO; otherwise it
///   **defers** — a per-channel census of staged sends distinguishes
///   "claim still coming" from genuine noise, which is discarded
///   reader-side exactly like the ranker's `is_noise`.
///
/// Staged activities queue per **execution entity** (context), not per
/// host: a thread's activities are causally serial, and threads depend
/// on each other only through send→receive edges, which real traffic
/// cannot make cyclic. Deferral therefore follows the causal DAG and —
/// unlike host-level FIFO — cannot deadlock or head-of-line block
/// independent threads; a deferred lane resumes when the claim it
/// waits for is routed. Assignments are a pure function of the
/// per-entity sequences and per-channel FIFOs, independent of
/// push/pump interleaving.
#[derive(Debug)]
struct SessionRouter {
    shards: u32,
    hasher: FxBuildHasher,
    lanes: Vec<CtxLane>,
    by_ctx: FxHashMap<crate::activity::ContextId, usize>,
    /// Lanes with potentially routable heads, a min-heap on `(head
    /// timestamp, lane)`. The pump always steps the lane whose head is
    /// globally earliest and routes **one** activity per step — the
    /// same global time order the batch ranker delivers in — so a
    /// thread's late same-thread SEND can never reach a worker engine
    /// before another lane's earlier RECEIVE/END seals the session
    /// (the bulk-mix seal-order divergence). Lane index breaks ties
    /// deterministically (lane creation order). Entries are
    /// invalidated lazily: a popped entry is live only if it matches
    /// the lane's current `qkey` — cheaper than keyed removal on the
    /// per-record hot path.
    runnable: std::collections::BinaryHeap<std::cmp::Reverse<(crate::activity::LocalTime, usize)>>,
    /// Channel → lanes whose head RECEIVE waits for a claim on it.
    waiters: FxHashMap<crate::activity::Channel, Vec<usize>>,
    /// Directed channel → claim FIFO + staged-send census.
    claims: FxHashMap<crate::activity::Channel, Claims>,
    /// `(channel, is_send)` → which lanes stage that endpoint role
    /// (shared-channel time ordering; see [`RoleOrder`]).
    roles: FxHashMap<(crate::activity::Channel, bool), RoleOrder>,
    /// True once any channel role went shared: until then `in_turn` /
    /// `untrack` skip their map lookups entirely (the common,
    /// unpooled case pays one stage-time lookup per send/receive).
    any_shared: bool,
    /// Staged activity count across lanes.
    staged: usize,
    /// Channel-idle GC horizon in staged records
    /// ([`DEFAULT_CHANNEL_IDLE_HORIZON`]).
    idle_horizon: u64,
    /// Bounded-age settle rule: force-settle a lane's undecidable head
    /// receive once this many records buffer behind it
    /// ([`DEFAULT_LANE_SETTLE_DEPTH`]).
    settle_depth: u64,
    /// Heads settled early by the bounded-age rule (diagnostics).
    aged_settles: u64,
    /// Total records ever staged — the idle-GC clock.
    records_staged: u64,
    /// Record count at the last idle sweep.
    last_sweep: u64,
    /// Idle channels evicted by the GC (diagnostics).
    idle_evicted: u64,
    /// Receives force-routed by the drift fallback (diagnostics; zero
    /// on causally consistent input).
    forced_routes: u64,
    /// Receives discarded reader-side because their channel never
    /// carries a traced send — precisely the ranker's `is_noise`
    /// condition (no match in any `mmap`, no match in any buffer), so
    /// they are dropped before ever being ranked.
    noise_discards: u64,
    /// First few noise victims, for diagnostics.
    noise_samples: Vec<Activity>,
    /// Orphan-chain records dropped reader-side (never dispatched).
    orphan_dropped: u64,
    /// Channels evicted by the idle GC since the owner last drained
    /// this list; the owner evicts the same channels from its
    /// [`crate::raw::RangeDedup`] so dedup coverage is shed at the
    /// same horizon as router claims.
    evicted: Vec<crate::activity::Channel>,
}

impl SessionRouter {
    fn new(shards: u32, idle_horizon: u64, settle_depth: u64) -> Self {
        SessionRouter {
            shards,
            hasher: FxBuildHasher::default(),
            lanes: Vec::new(),
            by_ctx: FxHashMap::default(),
            runnable: std::collections::BinaryHeap::new(),
            waiters: FxHashMap::default(),
            claims: FxHashMap::default(),
            roles: FxHashMap::default(),
            any_shared: false,
            staged: 0,
            idle_horizon,
            settle_depth,
            aged_settles: 0,
            records_staged: 0,
            last_sweep: 0,
            idle_evicted: 0,
            forced_routes: 0,
            noise_discards: 0,
            noise_samples: Vec::new(),
            orphan_dropped: 0,
            evicted: Vec::new(),
        }
    }

    /// Takes the channels evicted by the idle GC since the last call,
    /// so the owner can shed matching [`crate::raw::RangeDedup`] state.
    fn take_evicted(&mut self) -> Vec<crate::activity::Channel> {
        std::mem::take(&mut self.evicted)
    }

    fn hash_to_shard<T: std::hash::Hash>(&self, key: &T) -> u32 {
        use std::hash::BuildHasher;
        jump_hash(self.hasher.hash_one(key), self.shards)
    }

    /// Approximate resident bytes of the router's staging state: the
    /// deferred/noise lanes (activities waiting for their claims or for
    /// end-of-input noise settlement), the per-channel claim FIFOs and
    /// waiter lists, and the noise samples. This is the state the
    /// ROADMAP's "sharded streaming endurance" item bounds; an endless
    /// noisy stream grows exactly these numbers.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| size_of::<CtxLane>() + l.buf.len() * size_of::<Activity>())
            .sum();
        let claims: usize = self
            .claims
            .values()
            .map(|c| {
                size_of::<crate::activity::Channel>()
                    + size_of::<Claims>()
                    + c.queue.len() * size_of::<ClaimEntry>()
            })
            .sum();
        let waiters: usize = self
            .waiters
            .values()
            .map(|w| size_of::<crate::activity::Channel>() + w.len() * size_of::<usize>())
            .sum();
        let roles: usize = self
            .roles
            .values()
            .map(|t| {
                size_of::<(crate::activity::Channel, bool)>()
                    + size_of::<RoleOrder>()
                    + t.order.as_ref().map_or(0, |m| {
                        m.len() * size_of::<((crate::activity::LocalTime, usize), u32)>()
                    })
            })
            .sum();
        lanes
            + claims
            + waiters
            + roles
            + self.by_ctx.len() * size_of::<(crate::activity::ContextId, usize)>()
            + self.noise_samples.len() * size_of::<Activity>()
    }

    /// Stages one classified, filter-admitted activity on its entity's
    /// lane. Small local-time inversions (e.g. concatenated per-CPU
    /// buffers) are tolerated by insertion — O(1) for sorted input —
    /// so callers can stage records in plain arrival order with no
    /// grouping or sorting pass.
    fn stage(&mut self, a: Activity) {
        self.records_staged += 1;
        if a.ty == ActivityType::Send {
            let now = self.records_staged;
            let c = self.claims.entry(a.channel).or_default();
            c.staged += 1;
            if let Some(seq) = a.seq {
                c.max_seq_end = c.max_seq_end.max(seq + a.size.max(1));
            }
            c.last_touch = now;
        }
        if self.records_staged - self.last_sweep >= self.idle_horizon {
            self.sweep_idle_channels(self.idle_horizon);
        }
        let lane = match self.by_ctx.get(&a.ctx) {
            Some(&i) => i,
            None => {
                let i = self.lanes.len();
                self.lanes.push(CtxLane {
                    buf: VecDeque::new(),
                    affinity: None,
                    bound: None,
                    noise: false,
                    qkey: None,
                    waiting_on: None,
                });
                self.by_ctx.insert(a.ctx.clone(), i);
                i
            }
        };
        if matches!(a.ty, ActivityType::Send | ActivityType::Receive) {
            self.track_stage(lane, &a);
        }
        let buf = &mut self.lanes[lane].buf;
        match buf.back() {
            Some(last) if last.ts > a.ts => {
                let pos = buf
                    .iter()
                    .rposition(|x| x.ts <= a.ts)
                    .map(|p| p + 1)
                    .unwrap_or(0);
                buf.insert(pos, a);
            }
            _ => buf.push_back(a),
        }
        self.staged += 1;
        self.enqueue(lane);
    }

    /// (Re-)registers a lane in the runnable heap under its current
    /// head timestamp; deregisters it when the lane is empty.
    /// Idempotent, and free when the key is unchanged. A superseded
    /// heap entry is not removed here — the pump discards entries whose
    /// key no longer matches the lane's `qkey`.
    fn enqueue(&mut self, lane: usize) {
        let head_ts = self.lanes[lane].buf.front().map(|a| a.ts);
        match (self.lanes[lane].qkey, head_ts) {
            (Some(k), Some(ts)) if k == ts => {}
            (_, new) => {
                if let Some(ts) = new {
                    self.runnable.push(std::cmp::Reverse((ts, lane)));
                }
                self.lanes[lane].qkey = new;
            }
        }
    }

    /// Channel-idle GC (ROADMAP "sharded streaming endurance"): evicts
    /// per-channel `claims` and `roles` entries whose channel has been
    /// idle — nothing queued, nothing staged, nobody waiting — for more
    /// than `horizon` staged records. On an endless stream these maps
    /// otherwise grow one entry per channel for the stream's lifetime.
    /// Eviction only forgets the drained channel's `last`-shard drift
    /// fallback and its shared-role history; both rebuild on the next
    /// activity, so live traffic is never affected.
    fn sweep_idle_channels(&mut self, horizon: u64) {
        self.last_sweep = self.records_staged;
        let now = self.records_staged;
        let evict: Vec<crate::activity::Channel> = self
            .claims
            .iter()
            .filter(|(ch, c)| {
                c.queue.is_empty()
                    && c.staged == 0
                    && now.saturating_sub(c.last_touch) > horizon
                    && !self.waiters.contains_key(*ch)
                    && [true, false].iter().all(|&s| {
                        self.roles
                            .get(&(**ch, s))
                            .is_none_or(|t| t.order.as_ref().is_none_or(|m| m.is_empty()))
                    })
            })
            .map(|(ch, _)| *ch)
            .collect();
        for ch in evict {
            self.claims.remove(&ch);
            self.roles.remove(&(ch, true));
            self.roles.remove(&(ch, false));
            self.idle_evicted += 1;
            self.evicted.push(ch);
        }
    }

    fn wake(&mut self, channel: crate::activity::Channel) {
        if self.waiters.is_empty() {
            return;
        }
        if let Some(ws) = self.waiters.remove(&channel) {
            for lane in ws {
                // The registration is consumed; a re-defer must
                // re-register.
                self.lanes[lane].waiting_on = None;
                self.enqueue(lane);
            }
        }
    }

    /// Records a staged SEND/RECEIVE in its channel role's order
    /// tracker; the first time a second lane appears in one role, the
    /// role upgrades to shared mode and the exclusive lane's staged
    /// activities are indexed.
    fn track_stage(&mut self, lane: usize, a: &Activity) {
        let key = (a.channel, a.ty == ActivityType::Send);
        match self.roles.get_mut(&key) {
            None => {
                self.roles.insert(key, RoleOrder { lane, order: None });
            }
            Some(t) => {
                if t.order.is_none() {
                    if t.lane == lane {
                        return;
                    }
                    let mut m = BTreeMap::new();
                    for act in &self.lanes[t.lane].buf {
                        if act.channel == a.channel && act.ty == a.ty {
                            *m.entry((act.ts, t.lane)).or_insert(0u32) += 1;
                        }
                    }
                    t.order = Some(m);
                    self.any_shared = true;
                }
                *t.order
                    .as_mut()
                    .expect("just upgraded")
                    .entry((a.ts, lane))
                    .or_insert(0) += 1;
            }
        }
    }

    /// True when `a` is allowed to produce/consume claims now: on a
    /// shared channel role, only the staged activity that is earliest
    /// in the endpoint host's local time may act (TCP handed the bytes
    /// over in that order).
    fn in_turn(&self, lane: usize, a: &Activity) -> bool {
        if !self.any_shared {
            return true;
        }
        match self.roles.get(&(a.channel, a.ty == ActivityType::Send)) {
            Some(RoleOrder { order: Some(m), .. }) => {
                m.first_key_value().is_none_or(|(&k, _)| k == (a.ts, lane))
            }
            _ => true,
        }
    }

    /// Removes a consumed (routed, discarded or force-routed)
    /// SEND/RECEIVE from its role's order tracker.
    fn untrack(&mut self, lane: usize, a: &Activity) {
        if !self.any_shared || !matches!(a.ty, ActivityType::Send | ActivityType::Receive) {
            return;
        }
        if let Some(RoleOrder { order: Some(m), .. }) =
            self.roles.get_mut(&(a.channel, a.ty == ActivityType::Send))
        {
            if let Some(c) = m.get_mut(&(a.ts, lane)) {
                *c -= 1;
                if *c == 0 {
                    m.remove(&(a.ts, lane));
                }
            }
        }
    }

    /// Routes a SEND: session from the thread's affinity (noise chains
    /// fall back to their channel's shard or hash), then claims the
    /// channel's bytes for that shard. The second return is true when
    /// the send opens or extends an orphan chain and was marked
    /// dropped: the batch engine would bury it in a never-emitted
    /// orphan chain, so there is no point shipping it to a worker. Claim bookkeeping is identical either way — dropped
    /// claims still occupy their FIFO slot so routing decisions do not
    /// shift.
    fn route_send(&mut self, lane: usize, a: &Activity) -> (u32, bool) {
        let s = match self.lanes[lane].affinity {
            Some(s) => s,
            // A send by an unclaimed thread opens a noise chain (or
            // continues one on its connection).
            None => match self.claims.get(&a.channel).and_then(|c| c.last) {
                Some(s) => s,
                None => self.hash_to_shard(&conn_key(a.channel.src, a.channel.dst)),
            },
        };
        let dropped = self.lanes[lane].noise || self.lanes[lane].affinity.is_none();
        let now = self.records_staged;
        let c = self.claims.entry(a.channel).or_default();
        c.staged -= 1;
        let bytes = a.size.max(1);
        c.queue.push_back(ClaimEntry {
            shard: s,
            dropped,
            bytes,
            range: a.seq.map(|s0| (s0, s0 + bytes)),
        });
        c.last = Some(s);
        c.last_touch = now;
        self.wake(a.channel);
        (s, dropped)
    }

    /// Decides a RECEIVE against its channel's claim FIFO. Until input
    /// ends, it resolves **only** when the claimed bytes cover it —
    /// Rule 1's byte-exactness, mirrored: the remaining segments of
    /// its message may simply not have arrived yet, and consuming a
    /// half-present message would permanently shift the FIFO and hand
    /// a later session's bytes to the wrong shard. With `final_input`,
    /// partial coverage is consumed as-is (genuinely lost segments; the
    /// engine counts the deformation the same way in every mode),
    /// drained channels fall back to their last shard, and claimless
    /// channels are noise.
    ///
    /// When the receive and the front claim both carry `TCP_TRACE v2`
    /// `seq=` offsets, matching is by **stream-range overlap** instead
    /// of byte counting: claims entirely below the receive's range are
    /// retired (their receive records were lost to partial capture),
    /// uncovered head bytes (lost send records) are forgiven, and
    /// trims are offset-exact — capture gaps can never shift the FIFO.
    fn decide_receive(&mut self, a: &Activity, final_input: bool) -> RecvDecision {
        let now = self.records_staged;
        let Some(c) = self.claims.get_mut(&a.channel) else {
            return if final_input {
                RecvDecision::Noise
            } else {
                RecvDecision::Defer
            };
        };
        c.last_touch = now;
        if let Some(r0) = a.seq {
            let r1 = r0 + a.size.max(1);
            // Retire claims whose range lies entirely below the
            // receive's: their matching receive records were lost by
            // the capture; receive offsets on a channel are monotone,
            // so those bytes can never be claimed again.
            while matches!(
                c.queue.front(),
                Some(e) if e.range.is_some_and(|(_, end)| end <= r0)
            ) {
                c.queue.pop_front();
            }
            if let Some(&ClaimEntry {
                shard,
                range: Some((fs, _)),
                ..
            }) = c.queue.front()
            {
                if fs < r1 {
                    // Overlap with the front claim: this receive
                    // belongs to the front claim's session. Bytes of
                    // [r0, fs) have no claim (their send records were
                    // lost) and never will — only the part from `fs`
                    // up must be covered before consuming.
                    let need_from = r0.max(fs);
                    let covered: u64 = c
                        .queue
                        .iter()
                        .map_while(|e| e.range)
                        .map(|(s, en)| en.min(r1).saturating_sub(s.max(need_from)))
                        .sum();
                    if covered < r1 - need_from
                        && r1 > c.max_seq_end
                        && (!final_input || c.staged > 0)
                    {
                        // The tail segments' sends are still in flight
                        // (or staged on another lane): consuming now
                        // would shift later sessions' bytes. When
                        // `r1 <= max_seq_end` the deficit is instead
                        // *permanent* — send offsets are monotone, so
                        // no future claim can land below `r1`; the
                        // missing send records were lost to partial
                        // capture and waiting would only deadlock the
                        // lane graph — consume what exists now.
                        return RecvDecision::Defer;
                    }
                    // Consume [r0, r1) by offset: pop claims ending
                    // within it, trim the one that extends past it.
                    let (mut any, mut real, mut popped) = (false, false, false);
                    while let Some(e) = c.queue.front_mut() {
                        let Some((s, en)) = e.range else { break };
                        if s >= r1 {
                            break;
                        }
                        any = true;
                        real |= !e.dropped;
                        if en <= r1 {
                            c.queue.pop_front();
                            popped = true;
                        } else {
                            e.bytes = e.bytes.saturating_sub(r1 - s);
                            e.range = Some((r1, en));
                            break;
                        }
                    }
                    return if any && !real {
                        RecvDecision::Orphan(shard)
                    } else {
                        RecvDecision::Shard {
                            shard,
                            binds: popped,
                        }
                    };
                }
                // The front claim starts at or beyond the receive's
                // end: every send record of this receive's bytes was
                // lost, and stream offsets are monotone, so no future
                // claim can land below it either. The batch ranker
                // finds no match in any mmap or buffer and discards
                // such a receive as noise; routing it instead would
                // poison the worker engine's thread state and absorb
                // the thread's later records into an orphan chain.
                let _ = shard;
                return RecvDecision::Noise;
            }
            // No usable range on the front claim (empty queue, or a
            // mixed v1 sender): fall through to byte counting.
        }
        let Some(&ClaimEntry {
            shard: front_shard, ..
        }) = c.queue.front()
        else {
            return if final_input && c.staged == 0 {
                // Drained by byte drift; stay with the channel's shard
                // (an entry with nothing staged has routed ≥ 1 send).
                // The engine finds no pending there, so no re-binding.
                RecvDecision::Shard {
                    shard: c.last.unwrap_or(0),
                    binds: false,
                }
            } else {
                RecvDecision::Defer
            };
        };
        if a.size > c.queue.iter().map(|f| f.bytes).sum::<u64>() && (!final_input || c.staged > 0) {
            // Partial coverage: the remaining segments either have not
            // arrived yet or are staged on another lane and will route
            // (waking this one). Consuming now would permanently shift
            // the FIFO. Only when input is over AND no send is staged
            // are the missing segments genuinely lost — then consume
            // what exists, like the engine's forced-delivery path.
            return RecvDecision::Defer;
        }
        let mut need = a.size;
        let (mut any, mut real, mut popped) = (false, false, false);
        while need > 0 {
            match c.queue.front_mut() {
                Some(f) if f.bytes > need => {
                    any = true;
                    real |= !f.dropped;
                    f.bytes -= need;
                    if let Some((s, en)) = f.range {
                        f.range = Some(((s + need).min(en), en));
                    }
                    need = 0;
                }
                Some(f) => {
                    any = true;
                    real |= !f.dropped;
                    need -= f.bytes;
                    c.queue.pop_front();
                    popped = true;
                }
                None => break,
            }
        }
        if any && !real {
            RecvDecision::Orphan(front_shard)
        } else {
            RecvDecision::Shard {
                shard: front_shard,
                binds: popped,
            }
        }
    }

    /// Decides a RECEIVE, applying the bounded-age settle rule on
    /// deferral: once [`SessionRouter::settle_depth`] records have
    /// buffered behind an undecidable head (the lane was popped, so
    /// `buf` holds exactly the records behind it), the head is
    /// re-decided under end-of-input semantics — claimless channels
    /// discard as noise, drift leftovers route to their channel's
    /// shard, partial coverage is consumed as-is. A head whose claim is
    /// *staged on another lane* still defers (that lane is live and
    /// will wake this one), so the rule only fires where waiting could
    /// last forever: the send never existed or was lost by the capture.
    /// Like [`crate::correlator::CorrelatorConfig::max_seal_lag`], the
    /// exact firing point depends on push/pump interleaving; the
    /// conservative default keeps it out of reach of causally
    /// consistent captures, where deferrals resolve within the
    /// reordering skew.
    fn decide_with_settle(&mut self, lane: usize, a: &Activity, final_input: bool) -> RecvDecision {
        let d = self.decide_receive(a, final_input);
        if !matches!(d, RecvDecision::Defer) || final_input {
            return d;
        }
        if (self.lanes[lane].buf.len() as u64) < self.settle_depth {
            return RecvDecision::Defer;
        }
        match self.decide_receive(a, true) {
            // The claim is staged on a live lane: progress is
            // guaranteed, parking stays bounded.
            RecvDecision::Defer => RecvDecision::Defer,
            settled => {
                self.aged_settles += 1;
                settled
            }
        }
    }

    /// Routes the lane's head activity — **one step** of the global
    /// time-ordered schedule. Returns `true` when the lane parked
    /// (deferred head or shared-channel turn waiting): a parked lane is
    /// re-enqueued by [`SessionRouter::wake`], not by the pump.
    fn step_lane(
        &mut self,
        lane: usize,
        final_input: bool,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<bool, TraceError> {
        let Some(a) = self.lanes[lane].buf.pop_front() else {
            return Ok(false);
        };
        // Shared-channel time ordering: out of several entities
        // staging the same channel role, only the earliest may
        // act; later ones park until the channel's turn passes to
        // them (consumptions wake the channel's waiters).
        if matches!(a.ty, ActivityType::Send | ActivityType::Receive) && !self.in_turn(lane, &a) {
            if self.lanes[lane].waiting_on != Some(a.channel) {
                self.waiters.entry(a.channel).or_default().push(lane);
                self.lanes[lane].waiting_on = Some(a.channel);
            }
            self.lanes[lane].buf.push_front(a);
            return Ok(true);
        }
        let (shard, binds) = match a.ty {
            // The session identity itself: the client endpoint at the
            // access point (BEGIN: src is the client).
            ActivityType::Begin => (self.hash_to_shard(&a.channel.src), true),
            // The engine resolves an END through the thread's context
            // chain (`cmap`), not the endpoint — so it must go wherever
            // this entity's live binding is. That is normally the
            // session's own shard (identical to hashing the client
            // endpoint in `dst`), but under partial capture a receive
            // can byte-match another session's claim and re-bind the
            // thread there, exactly as the batch engine's cmap would.
            ActivityType::End => {
                let l = &self.lanes[lane];
                (
                    l.bound
                        .or(l.affinity)
                        .unwrap_or_else(|| self.hash_to_shard(&a.channel.dst)),
                    true,
                )
            }
            ActivityType::Send => {
                self.untrack(lane, &a);
                let (s, dropped) = self.route_send(lane, &a);
                if dropped {
                    // Orphan-chain send: claim recorded, record
                    // dropped. The lane keeps the chain's shard as
                    // affinity so follow-up records stay coherent,
                    // and is marked noise so they drop too. The batch
                    // engine re-binds the context into the orphan
                    // chain, so any shard still holding a live binding
                    // for this entity must drop it.
                    self.staged -= 1;
                    self.orphan_dropped += 1;
                    self.unbind(lane, &a.ctx, dispatch)?;
                    self.lanes[lane].affinity = Some(s);
                    self.lanes[lane].noise = true;
                    return Ok(false);
                }
                (s, true)
            }
            ActivityType::Receive => match self.decide_with_settle(lane, &a, final_input) {
                RecvDecision::Shard { shard, binds } => {
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    (shard, binds)
                }
                RecvDecision::Orphan(s) => {
                    // Every consumed claim was a dropped orphan
                    // send: the batch engine would merge this
                    // receive into the same never-emitted chain
                    // (re-binding the context to it).
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    self.staged -= 1;
                    self.orphan_dropped += 1;
                    self.unbind(lane, &a.ctx, dispatch)?;
                    self.lanes[lane].affinity = Some(s);
                    self.lanes[lane].noise = true;
                    return Ok(false);
                }
                RecvDecision::Defer => {
                    // The claiming send is staged (or may still
                    // arrive): wait for it. Register once per
                    // channel — wake→re-defer cycles must not grow
                    // the waiter list.
                    if self.lanes[lane].waiting_on != Some(a.channel) {
                        self.waiters.entry(a.channel).or_default().push(lane);
                        self.lanes[lane].waiting_on = Some(a.channel);
                    }
                    self.lanes[lane].buf.push_front(a);
                    return Ok(true);
                }
                RecvDecision::Noise => {
                    // Discarded before dispatch; the entity's
                    // session affinity stays untouched, like the
                    // engine's `cmap` would be.
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    self.staged -= 1;
                    self.noise_discards += 1;
                    if self.noise_samples.len() < NOISE_SAMPLE_CAP {
                        self.noise_samples.push(a);
                    }
                    return Ok(false);
                }
            },
        };
        self.staged -= 1;
        self.lanes[lane].affinity = Some(shard);
        self.lanes[lane].noise = false;
        if binds {
            self.rebind(lane, shard, &a.ctx, dispatch)?;
        }
        dispatch(ShardMsg::Act(a), shard)?;
        Ok(false)
    }

    /// Moves the lane's live context binding to `shard`, telling the
    /// shard that held it before (if any, and different) to forget it —
    /// the mirror of the batch engine overwriting the entity's `cmap`
    /// entry.
    fn rebind(
        &mut self,
        lane: usize,
        shard: u32,
        ctx: &ContextId,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if let Some(old) = self.lanes[lane].bound {
            if old != shard {
                dispatch(ShardMsg::ForgetCtx(ctx.clone()), old)?;
            }
        }
        self.lanes[lane].bound = Some(shard);
        Ok(())
    }

    /// Drops the lane's live context binding entirely: the entity's
    /// chain continued into a reader-side-dropped orphan chain, which
    /// the batch engine re-binds `cmap` to — so no shard may keep a
    /// resolvable binding.
    fn unbind(
        &mut self,
        lane: usize,
        ctx: &ContextId,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if let Some(old) = self.lanes[lane].bound.take() {
            dispatch(ShardMsg::ForgetCtx(ctx.clone()), old)?;
        }
        Ok(())
    }

    /// Routes every currently routable staged activity, calling
    /// `dispatch` for each `(activity, shard)` in a deterministic
    /// **global time order**: each iteration steps the runnable lane
    /// whose head has the earliest local timestamp (ties by lane
    /// creation order) and routes exactly one activity — the order the
    /// batch ranker delivers in, so a session's records reach their
    /// worker engine in the same relative order batch does and seal
    /// order cannot diverge. With `final_input`, remaining deferred
    /// receives are settled (noise discarded; byte-drift leftovers
    /// routed to their channel's shard), so the staging area fully
    /// drains.
    fn pump(
        &mut self,
        final_input: bool,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if final_input {
            // Lanes that deferred mid-stream are waiting on claims that
            // may never come; with input closed they must all re-decide
            // under final semantics (noise discard, drift fallback).
            for lane in 0..self.lanes.len() {
                if !self.lanes[lane].buf.is_empty() {
                    self.enqueue(lane);
                }
            }
        }
        loop {
            while let Some(std::cmp::Reverse((ts, lane))) = self.runnable.pop() {
                // Lazy invalidation: the lane's head moved (or the lane
                // parked) since this entry was pushed.
                if self.lanes[lane].qkey != Some(ts) {
                    continue;
                }
                self.lanes[lane].qkey = None;
                // Step this lane for as long as it holds the global
                // minimum: the common case is a run of consecutive
                // records on one entity, which costs no heap traffic
                // at all. A stale peeked entry can only yield early —
                // it is discarded on its own pop and the lane resumes.
                loop {
                    if self.step_lane(lane, final_input, dispatch)? {
                        break; // parked; wake() re-enqueues
                    }
                    let Some(head) = self.lanes[lane].buf.front().map(|a| a.ts) else {
                        break; // drained
                    };
                    if let Some(&std::cmp::Reverse(next)) = self.runnable.peek() {
                        if next < (head, lane) {
                            self.runnable.push(std::cmp::Reverse((head, lane)));
                            self.lanes[lane].qkey = Some(head);
                            break; // another lane is globally earlier
                        }
                    }
                }
            }
            if !final_input || self.staged == 0 {
                return Ok(());
            }
            // Input is complete yet a lane still waits: byte drift or
            // capture gaps detached a receive from its claim. Force the
            // stuck head with the earliest local timestamp (ties by
            // lane creation order) onto its channel's shard and resume:
            // that is the order the batch ranker delivers in, so gap
            // cascades resolve identically — each forced record routes
            // after the records that precede it in batch and before the
            // ones that follow, landing on the shard whose engine holds
            // the matching channel state.
            let Some(lane) = (0..self.lanes.len())
                .filter(|&l| !self.lanes[l].buf.is_empty())
                .min_by_key(|&l| (self.lanes[l].buf[0].ts, l))
            else {
                return Ok(());
            };
            let a = self.lanes[lane].buf.pop_front().expect("nonempty");
            self.staged -= 1;
            self.forced_routes += 1;
            self.untrack(lane, &a);
            let shard = match a.ty {
                ActivityType::Send => {
                    let (s, dropped) = self.route_send(lane, &a);
                    if dropped {
                        self.orphan_dropped += 1;
                        self.unbind(lane, &a.ctx, dispatch)?;
                        self.lanes[lane].affinity = Some(s);
                        self.lanes[lane].noise = true;
                        self.enqueue(lane);
                        continue;
                    }
                    s
                }
                _ => match self.claims.get(&a.channel).and_then(|c| c.last) {
                    Some(s) => s,
                    None => self.hash_to_shard(&conn_key(a.channel.src, a.channel.dst)),
                },
            };
            self.wake(a.channel);
            self.lanes[lane].affinity = Some(shard);
            self.lanes[lane].noise = false;
            self.rebind(lane, shard, &a.ctx, dispatch)?;
            dispatch(ShardMsg::Act(a), shard)?;
            self.enqueue(lane);
        }
    }
}

/// The shared reader-side front-end of the sharded and distributed
/// pipelines: dedup → classify → filter → route through the one
/// sequential [`SessionRouter`], plus the canonical cluster merge.
/// Everything the correlation algorithm needs exactly **once** per
/// cluster lives here, regardless of whether the shards behind it are
/// worker threads or router processes ([`crate::dist`]): the routing/dispatch sequence — and therefore the
/// merged output — is a pure function of the input, not of the
/// execution topology.
#[derive(Debug)]
pub(crate) struct ReaderCore {
    classifier: Classifier,
    filters: FilterSet,
    interner: Interner,
    /// Reader-side duplicate-range elimination (v2 `seq=` arithmetic,
    /// v1 `retrans` marker fallback) — runs before classification.
    range_dedup: RangeDedup,
    router: SessionRouter,
    records_in: u64,
    filtered_out: u64,
    retrans_dropped: u64,
}

impl ReaderCore {
    /// Builds the front-end routing over `shards` downstream workers.
    /// The config must already be validated.
    pub(crate) fn new(config: &CorrelatorConfig, shards: u32) -> Self {
        ReaderCore {
            classifier: Classifier::new(config.access.clone()),
            filters: config.filters.clone(),
            interner: Interner::new(),
            range_dedup: RangeDedup::new(),
            router: SessionRouter::new(
                shards,
                DEFAULT_CHANNEL_IDLE_HORIZON,
                DEFAULT_LANE_SETTLE_DEPTH,
            ),
            records_in: 0,
            filtered_out: 0,
            retrans_dropped: 0,
        }
    }

    /// Deduplicates, filters, classifies and stages one record without
    /// routing it yet. The borrowed record is filtered before any
    /// allocation, then its strings are interned.
    pub(crate) fn stage_ref(&mut self, r: &RawRecordRef<'_>) {
        self.records_in += 1;
        let mut r = *r;
        match self.range_dedup.decide(&r) {
            crate::raw::IngestDecision::Drop => {
                self.retrans_dropped += 1;
                return;
            }
            crate::raw::IngestDecision::Admit(size) => r.size = size,
        }
        if !self.filters.admits_raw(&r) {
            self.filtered_out += 1;
            return;
        }
        let act = self.classifier.classify_ref(&r, &mut self.interner);
        self.router.stage(act);
        self.evict_dedup();
    }

    /// Sheds [`RangeDedup`] coverage for channels the router's idle GC
    /// just evicted, so dedup state obeys the same horizon as router
    /// claims instead of growing for the stream's lifetime.
    fn evict_dedup(&mut self) {
        if !self.router.evicted.is_empty() {
            for ch in self.router.take_evicted() {
                self.range_dedup.evict_channel(ch);
            }
        }
    }

    /// Routes everything currently routable through `dispatch`.
    /// `final_input` additionally breaks stuck states so the staging
    /// area fully drains.
    pub(crate) fn pump(
        &mut self,
        final_input: bool,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        self.router.pump(final_input, dispatch)
    }

    /// Approximate resident bytes of the reader-side routing state:
    /// deferred/noise lanes, per-channel claim FIFOs, waiter lists and
    /// dedup coverage.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.router.approx_bytes() + self.range_dedup.approx_bytes()
    }

    /// Canonical deterministic merge: the union of all shards' CAGs,
    /// finished and unfinished alike, sorted by their root BEGIN
    /// (timestamp, context, channel) and renumbered sequentially from
    /// `first_id` — from zero, the same id a single-shard run assigns on
    /// single-frontend-host logs, where BEGIN delivery order is BEGIN
    /// timestamp order. A session passes the count of CAGs it already
    /// emitted live, so no id repeats across its output. `outputs`
    /// must arrive in global shard order so capped diagnostics (noise
    /// samples) truncate identically for every topology.
    pub(crate) fn merge(
        &mut self,
        outputs: Vec<CorrelationOutput>,
        first_id: u64,
        started: Instant,
    ) -> CorrelationOutput {
        let mut all: Vec<Cag> = Vec::new();
        let mut metrics = CorrelatorMetrics {
            records_in: self.records_in,
            filtered_out: self.filtered_out,
            retrans_dropped: self.retrans_dropped,
            seq_dedup_ranges: self.range_dedup.seq_dedup_ranges,
            v2_records: self.range_dedup.v2_records,
            seq_gaps: self.range_dedup.seq_gaps,
            ..CorrelatorMetrics::default()
        };
        // Reader-side noise discards join the ranker count so the
        // merged total matches a single-shard run.
        metrics.ranker.noise_discards = self.router.noise_discards;
        metrics.ranker.aged_settles = self.router.aged_settles;
        metrics.orphan_dropped = self.router.orphan_dropped;
        let mut noise_samples = std::mem::take(&mut self.router.noise_samples);
        for mut out in outputs {
            all.append(&mut out.cags);
            all.append(&mut out.unfinished);
            // The reader already counted raw records and filter/retrans
            // drops; worker-side records_in would double-count the
            // survivors.
            out.metrics.records_in = 0;
            out.metrics.filtered_out = 0;
            out.metrics.retrans_dropped = 0;
            metrics.absorb(&out.metrics);
            noise_samples.append(&mut out.noise_samples);
            noise_samples.truncate(NOISE_SAMPLE_CAP);
        }
        all.sort_by(|a, b| {
            let key = |c: &Cag| {
                let r = &c.vertices[0];
                (r.ts, r.ctx.clone(), r.channel, r.size, c.vertices.len())
            };
            key(a).cmp(&key(b))
        });
        let mut cags = Vec::with_capacity(all.len());
        let mut unfinished = Vec::new();
        for (id, mut cag) in (first_id..).zip(all) {
            cag.id = id;
            if cag.finished {
                cags.push(cag);
            } else {
                unfinished.push(cag);
            }
        }
        metrics.wall = started.elapsed();
        CorrelationOutput {
            cags,
            unfinished,
            metrics,
            noise_samples,
        }
    }
}

/// Derives the per-worker correlator config for a cluster of `n`
/// workers: workers receive pre-classified, pre-filtered activities
/// (filters cleared), and a configured memory budget splits evenly so
/// the configured total still bounds resident correlation state.
pub(crate) fn worker_config(config: &CorrelatorConfig, n: usize) -> CorrelatorConfig {
    let mut wc = config.clone();
    wc.filters = FilterSet::new();
    if let Some(b) = wc.memory_budget {
        wc.memory_budget = Some((b / n).max(1));
    }
    wc
}

/// Hands one routed message to a direct-delivery engine.
fn deliver(sc: &mut StreamingCorrelator, msg: ShardMsg) -> Result<(), TraceError> {
    match msg {
        ShardMsg::Act(a) => sc.push_activity(a),
        ShardMsg::ForgetCtx(ctx) => {
            sc.forget_ctx(&ctx);
            Ok(())
        }
    }
}

/// One shard worker's drain loop: correlate batches as they arrive,
/// stream sealed CAGs out, finish when the feeding side hangs up.
/// Shared by the in-process sharded pipeline and the distributed
/// router peers.
pub(crate) fn run_worker(
    mut sc: StreamingCorrelator,
    rx: Receiver<Vec<ShardMsg>>,
) -> Result<CorrelationOutput, TraceError> {
    let mut cags = Vec::new();
    for batch in rx {
        for msg in batch {
            deliver(&mut sc, msg)?;
        }
        cags.extend(sc.poll()?);
    }
    let mut out = sc.finish()?;
    cags.append(&mut out.cags);
    out.cags = cags;
    Ok(out)
}

/// A block of in-process shard workers, each a direct-delivery
/// [`StreamingCorrelator`] on its own thread behind a bounded channel.
/// The thread backend of [`Cluster`], and the worker block of every
/// distributed router peer.
#[derive(Debug)]
pub(crate) struct WorkerThreads {
    txs: Vec<SyncSender<Vec<ShardMsg>>>,
    handles: Vec<JoinHandle<Result<CorrelationOutput, TraceError>>>,
}

impl WorkerThreads {
    /// Spawns `n` workers on the per-worker config `wc` (see
    /// [`worker_config`]).
    pub(crate) fn spawn(wc: &CorrelatorConfig, n: usize) -> Result<Self, TraceError> {
        let mut block = WorkerThreads {
            txs: Vec::with_capacity(n),
            handles: Vec::with_capacity(n),
        };
        for _ in 0..n {
            // Direct delivery: the router already performed candidate
            // selection (causal order, Rule-1 byte coverage, noise
            // removal), so workers run the engine without re-ranking.
            let sc = StreamingCorrelator::direct_for_activities(wc.clone())?;
            let (tx, rx) = sync_channel(CHANNEL_BATCHES);
            block.txs.push(tx);
            block
                .handles
                .push(std::thread::spawn(move || run_worker(sc, rx)));
        }
        Ok(block)
    }

    pub(crate) fn send(&self, worker: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError> {
        self.txs[worker]
            .send(batch)
            .map_err(|_| TraceError::config("shard worker terminated unexpectedly"))
    }

    /// Hangs up and joins every worker; outputs come in worker order.
    pub(crate) fn join(&mut self) -> Result<Vec<CorrelationOutput>, TraceError> {
        self.txs.clear();
        self.handles
            .drain(..)
            .map(|h| {
                h.join()
                    .map_err(|_| TraceError::config("shard worker panicked"))?
            })
            .collect()
    }
}

impl Drop for WorkerThreads {
    fn drop(&mut self) {
        // Hang up so abandoned workers terminate instead of blocking
        // forever on their receive loops.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Where a [`Cluster`] ships its batches.
#[allow(clippy::large_enum_variant)] // one backend per session
#[derive(Debug)]
enum Backend {
    /// One direct-delivery engine in the caller's thread
    /// ([`Mode::Streaming`]): routed messages go straight to it, with
    /// no worker thread, channel or wire in between.
    Inline(StreamingCorrelator),
    /// In-process worker threads ([`Mode::Sharded`]).
    Threads(WorkerThreads),
    /// Router peers over PTDC ([`Mode::Distributed`]).
    Peers(crate::dist::Peers),
}

impl Backend {
    fn send(&mut self, shard: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError> {
        match self {
            Backend::Inline(sc) => batch.into_iter().try_for_each(|m| deliver(sc, m)),
            Backend::Threads(t) => t.send(shard, batch),
            Backend::Peers(p) => p.send(shard, &batch),
        }
    }

    fn flush(&mut self) -> Result<(), TraceError> {
        match self {
            // Neither the engine nor the channels buffer bytes.
            Backend::Inline(_) | Backend::Threads(_) => Ok(()),
            Backend::Peers(p) => p.flush(),
        }
    }

    /// Collects every worker's output in global shard order.
    fn finish(&mut self) -> Result<Vec<CorrelationOutput>, TraceError> {
        match self {
            Backend::Inline(sc) => Ok(vec![sc.finish()?]),
            Backend::Threads(t) => t.join(),
            Backend::Peers(p) => p.finish(),
        }
    }
}

/// The cluster host behind [`Mode::Streaming`], [`Mode::Sharded`] and
/// [`Mode::Distributed`]; callers reach it through
/// [`crate::pipeline::Pipeline`]. One [`ReaderCore`] routes every
/// record to a global shard. The inline backend delivers each routed
/// message to its one engine at once; the worker backends receive
/// batches of `BATCH_RECORDS` messages. The canonical merge joins the
/// outputs at finish. See the module docs for the architecture and the
/// output-order contract.
#[derive(Debug)]
pub(crate) struct Cluster {
    core: ReaderCore,
    /// Per-shard batch under construction (empty for the inline
    /// backend, which takes no batches).
    pending: Vec<Vec<ShardMsg>>,
    backend: Backend,
    /// CAGs handed out by [`Self::poll`] so far: live CAGs are numbered
    /// in emission order, and the final merge numbers on from here.
    emitted: u64,
    started: Instant,
    finished: bool,
}

impl Cluster {
    /// Starts the engines of a validated streaming, sharded or
    /// distributed pipeline configuration. A configured
    /// [`CorrelatorConfig::memory_budget`] is split evenly across the
    /// shards, so the configured total still bounds resident state.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError::Router`] when a router peer cannot be
    /// reached, and a configuration error when the spill file cannot be
    /// created.
    pub(crate) fn new(p: &PipelineConfig) -> Result<Self, TraceError> {
        let shards = p.shards();
        let wc = worker_config(&p.correlator, shards);
        let backend = match p.mode {
            Mode::Streaming => Backend::Inline(StreamingCorrelator::direct_for_activities(wc)?),
            Mode::Distributed { routers, .. } => Backend::Peers(crate::dist::Peers::connect(
                &wc,
                routers,
                shards / routers,
                &p.router_transport,
            )?),
            Mode::Batch | Mode::Sharded(_) => Backend::Threads(WorkerThreads::spawn(&wc, shards)?),
        };
        let pending = match backend {
            Backend::Inline(_) => Vec::new(),
            _ => vec![Vec::with_capacity(BATCH_RECORDS); shards],
        };
        Ok(Cluster {
            core: ReaderCore::new(&p.correlator, shards as u32),
            pending,
            backend,
            emitted: 0,
            started: Instant::now(),
            finished: false,
        })
    }

    /// Approximate resident bytes of the host's correlation state: the
    /// reader-side routing state (deferred/noise lanes, per-channel
    /// claim FIFOs, waiter lists, dedup coverage), undelivered shard
    /// batches and, for the inline backend, its engine. Worker-side
    /// state of the thread and peer backends is bounded separately
    /// (per-shard memory budget) and not counted here.
    pub(crate) fn approx_bytes(&self) -> usize {
        let engine = match &self.backend {
            Backend::Inline(sc) => sc.approx_bytes(),
            _ => 0,
        };
        self.core.approx_bytes()
            + engine
            + self
                .pending
                .iter()
                .map(|b| b.len() * std::mem::size_of::<ShardMsg>())
                .sum::<usize>()
    }

    /// Live spill-tier counters `(objects spilled, faults)` of the
    /// inline engine. Workers of the thread and peer backends own their
    /// state privately until the final drain, so they report `(0, 0)`
    /// here; the drain metrics carry the totals.
    pub(crate) fn spill_counters(&self) -> (u64, u64) {
        match &self.backend {
            Backend::Inline(sc) => sc.spill_counters(),
            _ => (0, 0),
        }
    }

    fn guard(&self) -> Result<(), TraceError> {
        if self.finished {
            Err(TraceError::Finished)
        } else {
            Ok(())
        }
    }

    /// Routes everything currently routable: straight into the inline
    /// engine, or into per-shard batches, shipping every batch that
    /// reaches `BATCH_RECORDS`. `final_input` additionally breaks stuck
    /// states so the staging area fully drains.
    fn pump(&mut self, final_input: bool) -> Result<(), TraceError> {
        let Cluster {
            core,
            pending,
            backend,
            ..
        } = self;
        if let Backend::Inline(sc) = backend {
            return core.pump(final_input, &mut |m, _| deliver(sc, m));
        }
        core.pump(final_input, &mut |m, shard| {
            let shard = shard as usize;
            pending[shard].push(m);
            if pending[shard].len() < BATCH_RECORDS {
                return Ok(());
            }
            let batch = std::mem::replace(&mut pending[shard], Vec::with_capacity(BATCH_RECORDS));
            backend.send(shard, batch)
        })
    }

    /// Ships every partial batch.
    fn send_pending(&mut self) -> Result<(), TraceError> {
        for shard in 0..self.pending.len() {
            if !self.pending[shard].is_empty() {
                let batch =
                    std::mem::replace(&mut self.pending[shard], Vec::with_capacity(BATCH_RECORDS));
                self.backend.send(shard, batch)?;
            }
        }
        Ok(())
    }

    /// Stages one record without routing it yet: the record is
    /// filtered before any allocation and its strings are interned.
    pub(crate) fn stage_ref(&mut self, r: &RawRecordRef<'_>) {
        self.core.stage_ref(r);
    }

    /// Stages one owned raw record. The worker backends then route
    /// everything currently routable to their workers; the inline
    /// backend routes at the next [`Self::poll`], so pushing a whole
    /// input before the first poll routes it exactly like
    /// [`crate::pipeline::Pipeline::run`] does.
    ///
    /// Records of one host must arrive in local-timestamp order (small
    /// inversions are re-sorted, like the ranker's staging queues);
    /// cross-host interleaving is free. Wholly unordered input must be
    /// staged completely first ([`Self::stage_ref`]), as
    /// [`crate::pipeline::Pipeline::run`] does.
    ///
    /// Mid-stream, a RECEIVE whose channel has no known send yet
    /// defers inside the router — including untraced-peer noise,
    /// because a not-yet-arrived send is indistinguishable from one
    /// that never existed. Only that entity's lane parks; the other
    /// lanes keep routing. Such heads settle at [`Self::finish`], or
    /// earlier under the bounded-age settle rule
    /// ([`DEFAULT_LANE_SETTLE_DEPTH`]), which
    /// keeps router state bounded on endless noisy streams.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`], or an
    /// error when a worker or router peer died.
    pub(crate) fn push(&mut self, rec: &RawRecord) -> Result<(), TraceError> {
        self.guard()?;
        self.core.stage_ref(&rec.as_record_ref());
        self.route_on_push()
    }

    /// Parses and stages one TCP_TRACE log line through the zero-copy
    /// ingest path, routing like [`Self::push`].
    ///
    /// # Errors
    ///
    /// Returns a parse error for a malformed line, and
    /// [`TraceError::Finished`] after [`Self::finish`].
    pub(crate) fn push_line(&mut self, line: &str) -> Result<(), TraceError> {
        self.guard()?;
        self.core.stage_ref(&RawRecordRef::parse_line(line)?);
        self.route_on_push()
    }

    fn route_on_push(&mut self) -> Result<(), TraceError> {
        match self.backend {
            Backend::Inline(_) => Ok(()),
            _ => self.pump(false),
        }
    }

    /// Returns the CAGs sealed since the last poll. The inline backend
    /// routes everything staged into its engine and returns the CAGs
    /// sealed at the engine's sampling boundaries, numbered on in
    /// emission order. The worker backends ship their partial batches
    /// (the workers keep correlating; use before a lull to bound shard
    /// input latency) and return nothing: they emit at
    /// [`Self::finish`], because the merge is global.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`], or an
    /// error when a worker or router peer died.
    pub(crate) fn poll(&mut self) -> Result<Vec<Cag>, TraceError> {
        self.guard()?;
        self.pump(false)?;
        let Backend::Inline(sc) = &mut self.backend else {
            self.send_pending()?;
            self.backend.flush()?;
            return Ok(Vec::new());
        };
        let mut cags = sc.poll()?;
        for cag in &mut cags {
            cag.id = self.emitted;
            self.emitted += 1;
        }
        Ok(cags)
    }

    /// Closes the cluster: drains the router completely (deferred
    /// receives resolve, stuck states break by promotion), ships the
    /// last batches, collects every engine's output in global shard
    /// order and merges them into the canonical deterministic order
    /// (see the module docs), numbered on after the CAGs already
    /// polled. The host is spent afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] when called twice, and an error
    /// when a worker or router peer failed.
    pub(crate) fn finish(&mut self) -> Result<CorrelationOutput, TraceError> {
        self.guard()?;
        self.pump(true)?;
        self.send_pending()?;
        self.finished = true;
        let outputs = self.backend.finish()?;
        Ok(self.core.merge(outputs, self.emitted, self.started))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPointSpec;
    use crate::correlator::Correlator;
    use crate::pipeline::{Pipeline, Source};
    use crate::raw::parse_log;

    fn access() -> AccessPointSpec {
        AccessPointSpec::new(
            [80],
            [
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.3".parse().unwrap(),
            ],
        )
    }

    fn config(cfg: CorrelatorConfig, shards: usize) -> PipelineConfig {
        PipelineConfig::from(cfg).with_mode(Mode::Sharded(shards))
    }

    /// A full `Pipeline::run` in `Mode::Sharded(shards)`.
    fn sharded(
        cfg: CorrelatorConfig,
        shards: usize,
        source: Source<'_>,
    ) -> Result<CorrelationOutput, TraceError> {
        Pipeline::new(config(cfg, shards))?.run(source)
    }

    /// A sharded host, validated the way `Pipeline::session` does.
    fn host(cfg: CorrelatorConfig, shards: usize) -> Result<Cluster, TraceError> {
        let p = config(cfg, shards);
        p.validate()?;
        Cluster::new(&p)
    }

    /// An idle horizon or settle depth that is never reached.
    const NEVER: u64 = u64::MAX;

    /// A default sharded host whose session router uses the given idle
    /// horizon and settle depth instead of the defaults.
    fn host_with_router(shards: usize, idle: u64, settle: u64) -> Cluster {
        let mut sc = host(CorrelatorConfig::new(access()), shards).unwrap();
        sc.core.router = SessionRouter::new(shards as u32, idle, settle);
        sc
    }

    /// `Pipeline::run`'s flow over a text log: stage everything, then
    /// finish.
    fn run_staged(mut sc: Cluster, log: &str) -> CorrelationOutput {
        for line in log.lines() {
            sc.stage_ref(&RawRecordRef::parse_line(line).unwrap());
        }
        sc.finish().unwrap()
    }

    /// Runs only the reader side over `records` and returns every
    /// dispatched message with its shard, sorted, plus the count of
    /// orphan-chain records dropped before dispatch. `pump_each` pumps
    /// after every record (the session flow) instead of once after
    /// staging everything (the `Pipeline::run` flow).
    fn route(records: &[RawRecord], pump_each: bool) -> (Vec<String>, u64) {
        let mut core = ReaderCore::new(&CorrelatorConfig::new(access()), 4);
        let mut routed = Vec::new();
        let mut dispatch = |m: ShardMsg, shard: u32| -> Result<(), TraceError> {
            routed.push(format!("{m:?} -> {shard}"));
            Ok(())
        };
        for rec in records {
            core.stage_ref(&rec.as_record_ref());
            if pump_each {
                core.pump(false, &mut dispatch).unwrap();
            }
        }
        core.pump(true, &mut dispatch).unwrap();
        routed.sort();
        (routed, core.router.orphan_dropped)
    }

    /// Two interleaved three-tier requests from different clients plus
    /// untraced-peer noise.
    fn two_session_log() -> String {
        let mut log = String::new();
        for (client, base) in [("192.168.0.9:5000", 0u64), ("192.168.0.10:6000", 300)] {
            let port = 4001 + base;
            for line in [
                format!(
                    "{} web httpd 7 {} RECEIVE {client}-10.0.0.1:80 120",
                    1000 + base,
                    7 + base
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:{port}-10.0.0.2:8009 64",
                    2000 + base,
                    7 + base
                ),
                format!(
                    "{} app java 9 {} RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                    500900 + base,
                    21 + base
                ),
                format!(
                    "{} app java 9 {} SEND 10.0.0.2:8009-10.0.0.1:{port} 256",
                    504000 + base,
                    21 + base
                ),
                format!(
                    "{} web httpd 7 {} RECEIVE 10.0.0.2:8009-10.0.0.1:{port} 256",
                    4500 + base,
                    7 + base
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:80-{client} 512",
                    5000 + base,
                    7 + base
                ),
            ] {
                log.push_str(&line);
                log.push('\n');
            }
        }
        log.push_str("902000 db mysqld 5 77 RECEIVE 172.16.9.9:6000-10.0.0.3:3306 48\n");
        log.push_str("902500 db mysqld 5 77 SEND 10.0.0.3:3306-172.16.9.9:6000 99\n");
        log
    }

    /// Content fingerprint that ignores stream order and ids.
    fn fingerprint(out: &CorrelationOutput) -> Vec<String> {
        let mut v: Vec<String> = out
            .cags
            .iter()
            .map(|c| {
                format!(
                    "{:?}|{}",
                    c.sorted_tags(),
                    c.vertices
                        .iter()
                        .map(|x| format!(
                            "{} {} {} {} {:?} {:?};",
                            x.ty, x.ts, x.channel, x.size, x.ctx_parent, x.msg_parent
                        ))
                        .collect::<String>()
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sharded_matches_batch_content_for_any_shard_count() {
        let log = two_session_log();
        let records = parse_log(&log).unwrap();
        let batch = Correlator::new(CorrelatorConfig::new(access()))
            .correlate(records.clone())
            .unwrap();
        for shards in [1, 2, 3, 4, 8] {
            let out = sharded(
                CorrelatorConfig::new(access()),
                shards,
                Source::records(records.clone()),
            )
            .unwrap();
            assert_eq!(out.cags.len(), batch.cags.len(), "shards={shards}");
            assert_eq!(fingerprint(&out), fingerprint(&batch), "shards={shards}");
            assert_eq!(out.metrics.records_in, batch.metrics.records_in);
            assert_eq!(out.metrics.cags_finished, batch.metrics.cags_finished);
            assert_eq!(
                out.metrics.ranker.noise_discards,
                batch.metrics.ranker.noise_discards
            );
            // Canonical order: ids are sequential in stream order.
            let ids: Vec<u64> = out.cags.iter().map(|c| c.id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "shards={shards}");
            for cag in &out.cags {
                cag.validate().expect("valid sharded CAG");
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_bytes() {
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 1, Source::text(&log)).unwrap();
        for shards in [2, 4, 7] {
            let out = sharded(CorrelatorConfig::new(access()), shards, Source::text(&log)).unwrap();
            assert_eq!(
                format!("{:?}", out.cags),
                format!("{:?}", base.cags),
                "shards={shards}"
            );
            assert_eq!(out.unfinished.len(), base.unfinished.len());
        }
    }

    #[test]
    fn text_and_record_ingest_agree() {
        let log = two_session_log();
        let records = parse_log(&log).unwrap();
        let a = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log)).unwrap();
        let b = sharded(CorrelatorConfig::new(access()), 3, Source::records(records)).unwrap();
        assert_eq!(format!("{:?}", a.cags), format!("{:?}", b.cags));
        assert_eq!(a.metrics.records_in, b.metrics.records_in);
    }

    #[test]
    fn filters_apply_in_the_reader() {
        let mut log = two_session_log();
        log.push_str("600 web sshd 99 99 RECEIVE 172.16.9.9:7000-10.0.0.1:22 500\n");
        let cfg =
            CorrelatorConfig::new(access()).with_filters(FilterSet::new().drop_program("sshd"));
        let out = sharded(cfg, 4, Source::text(&log)).unwrap();
        assert_eq!(out.metrics.filtered_out, 1);
        assert_eq!(out.cags.len(), 2);
    }

    #[test]
    fn api_after_finish_returns_finished_error() {
        let mut sc = host(CorrelatorConfig::new(access()), 2).unwrap();
        sc.push_line("1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120")
            .unwrap();
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.records_in, 1);
        assert_eq!(out.unfinished.len(), 1);
        let rec: RawRecord = "2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512"
            .parse()
            .unwrap();
        assert_eq!(sc.push(&rec), Err(TraceError::Finished));
        assert_eq!(sc.poll(), Err(TraceError::Finished));
        assert!(matches!(sc.finish(), Err(TraceError::Finished)));
    }

    #[test]
    fn zero_shards_resolves_to_auto() {
        let sc = host(CorrelatorConfig::new(access()), 0).unwrap();
        assert!(!sc.pending.is_empty());
        assert!(sc.pending.len() <= AUTO_SHARD_CAP);
    }

    #[test]
    fn routing_is_independent_of_pump_interleaving() {
        // The routing contract: for per-host-ordered input, assignments
        // are a pure function of the per-entity sequences and
        // per-channel claim FIFOs — staging everything before one
        // final pump and pumping after every record must dispatch
        // identical (message, shard) streams and drop the same orphans.
        let records = parse_log(&two_session_log()).unwrap();
        let staged = route(&records, false);
        assert!(staged.1 > 0, "the noise pair is dropped reader-side");
        assert_eq!(staged, route(&records, true));
    }

    #[test]
    fn stage_all_routing_absorbs_arbitrary_input_order() {
        // `Pipeline::run` stages the complete set first, so even fully
        // reversed input (every lane built by insertion sort) routes
        // identically to the in-order run.
        let records = parse_log(&two_session_log()).unwrap();
        let mut reversed = records.clone();
        reversed.reverse();
        assert_eq!(route(&records, false), route(&reversed, false));
    }

    #[test]
    fn router_memory_grows_and_shrinks_across_deferred_claims() {
        // A RECEIVE whose claiming SEND has not arrived defers on its
        // lane; the router's memory gauge must reflect the deferred
        // state and fall back once the claim routes it.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let mut router = SessionRouter::new(4, NEVER, NEVER);
        let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
        let mut feed = |router: &mut SessionRouter, line: String| {
            let rec: RawRecord = line.parse().unwrap();
            router.stage(classifier.classify(&rec));
            router
                .pump(false, &mut sink)
                .expect("dispatch cannot fail here");
        };
        let send = |i: u64, t: u64| {
            format!(
                "{t} web httpd 7 {} SEND 10.0.0.1:{}-10.0.0.2:8009 64",
                7 + i,
                4001 + i
            )
        };
        let recv = |i: u64, t: u64| {
            format!(
                "{t} app java 9 {} RECEIVE 10.0.0.1:{}-10.0.0.2:8009 64",
                21 + i,
                4001 + i
            )
        };

        // Warm-up: one routed round per channel creates the lanes and
        // claim entries that persist by design.
        for i in 0..3u64 {
            feed(&mut router, send(i, 1_000 + i));
            feed(&mut router, recv(i, 2_000 + i));
        }
        let base = router.approx_bytes();

        // A second round of receives arrives before its sends: each
        // defers on its lane, growing router memory monotonically.
        let mut grow = vec![base];
        for i in 0..3u64 {
            feed(&mut router, recv(i, 10_000 + i));
            grow.push(router.approx_bytes());
        }
        assert!(
            grow.windows(2).all(|w| w[0] < w[1]),
            "deferred claims must grow router memory: {grow:?}"
        );
        let deferred = *grow.last().unwrap();

        // The claiming sends arrive: deferred lanes drain and the
        // gauge returns exactly to the warmed-up baseline.
        for i in 0..3u64 {
            feed(&mut router, send(i, 9_000 + i));
        }
        let drained = router.approx_bytes();
        assert!(
            drained < deferred,
            "routed claims must shrink router memory: {deferred} -> {drained}"
        );
        assert_eq!(drained, base, "drained router returns to its baseline");
        assert_eq!(router.staged, 0, "nothing may stay staged");
    }

    #[test]
    fn channel_idle_gc_reclaims_drained_channels() {
        // Many one-shot channels (one send + one covering receive
        // each): without a horizon the router keeps one claims entry
        // per channel forever; with one, drained channels are evicted
        // once idle past the horizon and the memory gauge shrinks.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let run = |horizon: u64| {
            let mut router = SessionRouter::new(4, horizon, NEVER);
            let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
            let mut grow_peak = 0usize;
            for i in 0..400u64 {
                let port = 4001 + i;
                let t = 1_000 + i * 10;
                for line in [
                    format!("{t} web httpd 7 7 SEND 10.0.0.1:{port}-10.0.0.2:8009 64"),
                    format!(
                        "{} app java 9 21 RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                        t + 5
                    ),
                ] {
                    let rec: RawRecord = line.parse().unwrap();
                    router.stage(classifier.classify(&rec));
                    router.pump(false, &mut sink).unwrap();
                }
                grow_peak = grow_peak.max(router.approx_bytes());
            }
            (router, grow_peak)
        };
        let (no_gc, _) = run(NEVER);
        let (gc, gc_peak) = run(64);
        assert_eq!(no_gc.claims.len(), 400, "without GC every channel persists");
        assert!(
            gc.claims.len() < 64,
            "idle channels must be evicted: {} entries left",
            gc.claims.len()
        );
        assert!(
            gc.idle_evicted > 300,
            "evictions counted: {}",
            gc.idle_evicted
        );
        assert!(
            gc.approx_bytes() < no_gc.approx_bytes(),
            "GC router resident {} must undercut {}",
            gc.approx_bytes(),
            no_gc.approx_bytes()
        );
        // Grow-then-shrink: the gauge grew past its final value.
        assert!(gc_peak > gc.approx_bytes());
    }

    #[test]
    fn channel_idle_gc_does_not_change_output_on_live_traffic() {
        // Channels that stay active within the horizon are never
        // evicted, so output is byte-identical with and without GC.
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log)).unwrap();
        let gc = run_staged(host_with_router(3, 4, DEFAULT_LANE_SETTLE_DEPTH), &log);
        assert_eq!(format!("{:?}", gc.cags), format!("{:?}", base.cags));
        assert_eq!(gc.unfinished.len(), base.unfinished.len());
        assert_eq!(
            gc.metrics.ranker.noise_discards,
            base.metrics.ranker.noise_discards
        );
    }

    #[test]
    fn bounded_age_settle_caps_an_always_deferred_lane() {
        // Pathological lane: a thread that only ever RECEIVEs on a
        // channel whose SEND side is never captured (dead or untraced
        // peer). Mid-stream such a head is undecidable — the send may
        // still arrive — so without a settle depth the lane parks and
        // buffers every later record forever. With one, the head is
        // settled as noise once `depth` records pile up behind it, so
        // the lane's resident depth is capped at the knob.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let run = |depth: u64| {
            let mut router = SessionRouter::new(4, NEVER, depth);
            let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
            for i in 0..200u64 {
                let line = format!(
                    "{} app java 9 21 RECEIVE 10.0.0.1:6001-10.0.0.2:8009 64",
                    1_000 + i
                );
                let rec: RawRecord = line.parse().unwrap();
                router.stage(classifier.classify(&rec));
                router.pump(false, &mut sink).unwrap();
            }
            router
        };
        let parked = run(NEVER);
        assert_eq!(parked.staged, 200, "without the rule every record parks");
        assert_eq!(parked.aged_settles, 0);
        let settled = run(8);
        assert!(
            settled.staged <= 8,
            "the lane must stay within the settle depth: {} staged",
            settled.staged
        );
        assert_eq!(
            settled.aged_settles, 192,
            "each record past the depth settles one head"
        );
        assert_eq!(
            settled.noise_discards, settled.aged_settles,
            "claimless settled heads are discarded exactly like end-of-input noise"
        );
        assert!(
            settled.approx_bytes() < parked.approx_bytes() / 4,
            "settling must cap router memory: {} vs {}",
            settled.approx_bytes(),
            parked.approx_bytes()
        );
    }

    #[test]
    fn bounded_age_settle_waits_for_claims_staged_on_live_lanes() {
        // The rule must NOT fire when the head's claim is merely staged
        // on another lane (shared-channel turn ordering parks the send
        // behind an earlier stager): progress is guaranteed, and an
        // early settle would mis-route the receive. A depth of 1 makes
        // the settle maximally eager, yet output must match the
        // default run byte-for-byte on a live log.
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log)).unwrap();
        let eager = run_staged(host_with_router(3, DEFAULT_CHANNEL_IDLE_HORIZON, 1), &log);
        assert_eq!(format!("{:?}", eager.cags), format!("{:?}", base.cags));
        assert_eq!(eager.unfinished.len(), base.unfinished.len());
    }

    #[test]
    fn orphan_chain_records_drop_reader_side() {
        // The untraced-peer noise pair in `two_session_log` can never
        // reach an emitted CAG: the engine would park it on an orphan
        // chain and throw it away at finish. The reader drops such
        // records before dispatch and counts them in `orphan_dropped`.
        let out = sharded(
            CorrelatorConfig::new(access()),
            3,
            Source::text(&two_session_log()),
        )
        .unwrap();
        assert!(
            out.metrics.orphan_dropped > 0,
            "the noise pair must be dropped reader-side"
        );
        assert_eq!(out.metrics.ranker.noise_discards, 1);
        let batch = Pipeline::new(PipelineConfig::new(access()))
            .unwrap()
            .run(Source::text(&two_session_log()))
            .unwrap();
        assert_eq!(
            format!("{:?}{:?}", out.cags, out.unfinished),
            format!("{:?}{:?}", batch.cags, batch.unfinished),
            "dropping orphan chains must not change emitted bytes"
        );
    }

    #[test]
    fn range_dedup_coverage_follows_channel_idle_gc() {
        // Many one-shot v2 channels: without a horizon the reader keeps
        // one `RangeDedup` coverage entry per (channel, op) forever;
        // with one, a drained channel's coverage is evicted together
        // with its router claims, and the memory gauge shrinks.
        let run = |idle: u64| {
            let mut sc = host_with_router(2, idle, DEFAULT_LANE_SETTLE_DEPTH);
            let mut peak = 0usize;
            for i in 0..400u64 {
                let port = 4001 + i;
                let t = 1_000 + i * 10;
                sc.push_line(&format!(
                    "{t} web httpd 7 7 SEND 10.0.0.1:{port}-10.0.0.2:8009 64 seq=0"
                ))
                .unwrap();
                sc.push_line(&format!(
                    "{} app java 9 21 RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64 seq=0",
                    t + 5
                ))
                .unwrap();
                peak = peak.max(sc.approx_bytes());
            }
            (sc.approx_bytes(), peak)
        };
        let (no_gc, _) = run(DEFAULT_CHANNEL_IDLE_HORIZON);
        let (gc, gc_peak) = run(64);
        assert!(
            gc < no_gc,
            "evicting drained channels' coverage must shrink the reader: {gc} vs {no_gc}"
        );
        // Grow-then-shrink: the gauge grew past its final value.
        assert!(gc_peak > gc, "gauge must have peaked above {gc}: {gc_peak}");
    }

    #[test]
    fn range_claims_survive_send_record_gaps() {
        // A v2 channel where the tail send chunk's record was lost to
        // partial capture: the receive's range proves the deficit is
        // permanent (a later send is already staged), so it resolves
        // mid-stream to the right shard instead of deadlocking the
        // lane until finish.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let mut router = SessionRouter::new(4, NEVER, NEVER);
        let mut routed: Vec<(Activity, u32)> = Vec::new();
        let feed = |router: &mut SessionRouter, line: &str, out: &mut Vec<(Activity, u32)>| {
            let rec: RawRecord = line.parse().unwrap();
            router.stage(classifier.classify(&rec));
            let mut sink = |m: ShardMsg, s: u32| -> Result<(), TraceError> {
                if let ShardMsg::Act(a) = m {
                    out.push((a, s));
                }
                Ok(())
            };
            router.pump(false, &mut sink).unwrap();
        };
        // A session BEGIN gives the sending thread its affinity. Then
        // send chunks [0,4096) and — LOST — [4096,4360); the next
        // message's send [4360,8456) is staged before the receive
        // resolves.
        feed(
            &mut router,
            "900 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120",
            &mut routed,
        );
        feed(
            &mut router,
            "1000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 4096 seq=0",
            &mut routed,
        );
        feed(
            &mut router,
            "1200 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 4096 seq=4360",
            &mut routed,
        );
        let sends_shard = routed[1].1;
        assert_eq!(routed.len(), 3);
        // The receive covers [0,4360): 264 bytes have no claim and
        // never will (max staged send offset is already 8456).
        feed(
            &mut router,
            "2000 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:8009 4360 seq=0",
            &mut routed,
        );
        assert_eq!(routed.len(), 4, "gapped receive must resolve mid-stream");
        assert_eq!(routed[3].1, sends_shard, "and to the claiming send's shard");
        assert_eq!(router.staged, 0);
        assert_eq!(router.forced_routes, 0, "no stuck-breaker involved");
    }

    #[test]
    fn sharded_reader_drops_retrans_like_the_streaming_path() {
        let mut log = two_session_log();
        log.push_str("4600 web httpd 7 7 RECEIVE 10.0.0.2:8009-10.0.0.1:4001 256 retrans\n");
        let records = parse_log(&log).unwrap();
        let batch = Correlator::new(CorrelatorConfig::new(access()))
            .correlate(records.clone())
            .unwrap();
        let sharded =
            sharded(CorrelatorConfig::new(access()), 3, Source::records(records)).unwrap();
        assert_eq!(batch.metrics.retrans_dropped, 1);
        assert_eq!(sharded.metrics.retrans_dropped, 1);
        assert_eq!(sharded.cags.len(), batch.cags.len());
        assert_eq!(fingerprint(&sharded), fingerprint(&batch));
    }

    #[test]
    fn inline_gauges_cover_router_and_engine() {
        // 200 open requests under a 4 KiB budget: the engine holds (and
        // spills) their unfinished CAGs while the router parks a noise
        // receive. The session gauges must see both sides.
        let cfg = CorrelatorConfig::new(access())
            .with_memory_budget(4 << 10)
            .with_spill_dir(std::env::temp_dir());
        let p = PipelineConfig::from(cfg).with_mode(Mode::Streaming);
        p.validate().unwrap();
        let mut sc = Cluster::new(&p).unwrap();
        sc.push_line("500 web sshd 3 3 RECEIVE 172.16.0.50:52000-10.0.0.1:22 48")
            .unwrap();
        for i in 0..200u64 {
            sc.push_line(&format!(
                "{} web httpd 7 {} RECEIVE 192.168.0.9:{}-10.0.0.1:80 120",
                1_000 + i,
                7 + i,
                5000 + i
            ))
            .unwrap();
        }
        assert!(sc.poll().unwrap().is_empty());
        let Backend::Inline(engine) = &sc.backend else {
            panic!("streaming runs the inline backend");
        };
        let (router, engine_bytes) = (sc.core.approx_bytes(), engine.approx_bytes());
        assert!(router > 0 && engine_bytes > 0, "{router} {engine_bytes}");
        assert_eq!(sc.approx_bytes(), router + engine_bytes);
        let counters = engine.spill_counters();
        assert!(counters.0 > 0, "a 4 KiB budget must spill: {counters:?}");
        assert_eq!(sc.spill_counters(), counters);
        // The worker backends keep their state private until the drain.
        let mut sharded = host(CorrelatorConfig::new(access()), 2).unwrap();
        sharded
            .push_line("1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120")
            .unwrap();
        assert!(sharded.poll().unwrap().is_empty(), "ships the batch only");
        assert_eq!(sharded.spill_counters(), (0, 0));
        assert_eq!(sharded.approx_bytes(), sharded.core.approx_bytes());
    }

    #[test]
    fn approx_router_bytes_is_exposed() {
        let mut sc = host(CorrelatorConfig::new(access()), 2).unwrap();
        let base = sc.approx_bytes();
        // An orphan receive on an unclaimed channel defers in the
        // router until finish.
        sc.push_line("902000 db mysqld 5 77 RECEIVE 172.16.9.9:6000-10.0.0.3:3306 48")
            .unwrap();
        assert!(sc.approx_bytes() > base);
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.ranker.noise_discards, 1);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let cfg = CorrelatorConfig::new(AccessPointSpec::default());
        assert!(host(cfg, 4).is_err());
    }

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for key in 0..200u64 {
            let b4 = jump_hash(key, 4);
            let b5 = jump_hash(key, 5);
            assert!(b4 < 4);
            assert!(b5 < 5);
            // Consistency: growing the shard count either keeps the
            // bucket or moves the key to the new bucket range.
            if b5 != b4 {
                assert_eq!(b5, 4, "key {key} moved to an old bucket");
            }
        }
        assert_eq!(jump_hash(42, 1), 0);
    }

    #[test]
    fn memory_budget_splits_across_shards() {
        // 4,000 never-ending requests from one client endpoint: every
        // session routes to the same shard. A total budget equal to the
        // unbudgeted single-shard peak holds that load whole, but split
        // over two shards the loaded one gets half of it and must spill
        // — without losing a path.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let run = |shards: usize, budget: Option<usize>| {
            let mut cfg = CorrelatorConfig::new(access.clone());
            cfg.mem_sample_every = 8;
            cfg.memory_budget = budget;
            let mut sc = host(cfg, shards).unwrap();
            for i in 0..4_000u64 {
                sc.push_line(&format!(
                    "{} web httpd 7 {} RECEIVE 192.168.0.9:5000-10.0.0.1:80 100",
                    i * 1_000_000,
                    10 + i,
                ))
                .unwrap();
            }
            sc.finish().unwrap()
        };
        let peak = run(1, None).metrics.peak_bytes;
        let whole = run(1, Some(peak));
        assert_eq!(whole.metrics.engine.spilled_cags, 0, "the budget fits");
        let split = run(2, Some(peak));
        assert!(
            split.metrics.engine.spilled_cags > 0,
            "half the budget per shard must spill: {:?}",
            split.metrics.engine
        );
        assert_eq!(split.unfinished.len(), 4_000, "spilling keeps every path");
        assert_eq!(split.metrics.cags_unfinished, 4_000);
    }
}
