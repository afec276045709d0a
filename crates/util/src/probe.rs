//! Zero-overhead-when-off instrumentation: cycle-stamped event probes.
//!
//! Every simulator layer (cores, TLBs, the tagless cache, the DRAM
//! controllers) is generic over a [`Probe`] with a monomorphized no-op
//! default ([`NoProbe`]): the hot path compiles to exactly the
//! uninstrumented code unless a recording probe is substituted, so
//! figure runs pay nothing for the instrumentation's existence.
//!
//! Two sinks are built in, both fed by one [`Recorder`]:
//!
//! * **Interval telemetry** — counters bucketed per N-cycle epoch
//!   ([`Recorder::timeseries_json`]), the time-resolved view of
//!   free-queue draining, cTLB miss clustering, and writeback storms
//!   that end-of-run aggregates cannot show.
//! * **Chrome trace events** — a `trace.json` loadable in Perfetto or
//!   `chrome://tracing` ([`Recorder::chrome_trace_json`]), with stalls,
//!   walks, fills, and DRAM transfers as duration slices and the free
//!   queue as a counter track.
//!
//! High-frequency events (retires, TLB lookups, cTLB hits) are
//! aggregated into epochs only; everything else is also kept as a raw
//! cycle-stamped stream, capped at [`Recorder::with_max_events`] (overflow is
//! counted, never silently lost).
//!
//! Recording probes deliberately do not implement `Send`: a probed run
//! executes on one thread, and all clones of a [`SharedProbe`] feed the
//! same `Rc<RefCell<Recorder>>`.

use crate::json::Json;
use crate::mem::Cycle;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which DRAM device an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// The in-package (die-stacked) device backing the DRAM cache.
    InPackage,
    /// The off-package main-memory device.
    OffPackage,
}

impl Device {
    fn index(self) -> usize {
        match self {
            Device::InPackage => 0,
            Device::OffPackage => 1,
        }
    }
}

/// Row-buffer outcome of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowEvent {
    /// Open-row hit.
    Hit,
    /// Bank was precharged.
    Closed,
    /// Another row had to be closed first.
    Conflict,
}

impl RowEvent {
    fn as_str(self) -> &'static str {
        match self {
            RowEvent::Hit => "hit",
            RowEvent::Closed => "closed",
            RowEvent::Conflict => "conflict",
        }
    }
}

/// One cycle-stamped observation from inside the simulator.
///
/// Duration-style events (`MemStall`, `TlbStall`, `PageWalk`,
/// `PageFill`, `DramAccess`) are stamped at their *start* and carry
/// their length in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeEvent {
    /// A core retired `instrs` instructions (one per reference).
    Retire {
        /// Core index.
        core: u8,
        /// Instructions retired by this step.
        instrs: u64,
    },
    /// A core stalled on a full miss window.
    MemStall {
        /// Core index.
        core: u8,
        /// Stall length.
        cycles: u64,
    },
    /// A core stalled on address translation.
    TlbStall {
        /// Core index.
        core: u8,
        /// Stall length.
        cycles: u64,
    },
    /// A TLB level was consulted.
    TlbLookup {
        /// TLB level (1 or 2).
        level: u8,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A TLB level installed a translation.
    TlbInsert {
        /// TLB level (1 or 2).
        level: u8,
        /// Whether a valid entry was displaced.
        evicted: bool,
    },
    /// A page-table walk ran.
    PageWalk {
        /// Core index.
        core: u8,
        /// Walk length.
        cycles: u64,
    },
    /// A cTLB lookup hit (the access needs no miss handler).
    CtlbHit {
        /// Core index.
        core: u8,
        /// Whether the hit mapped into the cache (vs. an NC page).
        cached: bool,
    },
    /// A cTLB lookup missed and entered the miss handler.
    CtlbMiss {
        /// Core index.
        core: u8,
        /// Whether the page was still cached (in-package victim hit).
        victim_hit: bool,
    },
    /// A 4KB page was copied into the cache.
    PageFill {
        /// Handler entry to copy completion.
        cycles: u64,
    },
    /// A fill was skipped and the access served off-package.
    FillBypass {
        /// `true`: the online hot-page filter declined the fill;
        /// `false`: no evictable slot existed.
        filtered: bool,
    },
    /// A pending victim was rescued by a victim hit.
    Rescue,
    /// A GIPT entry was installed for a slot.
    GiptInsert {
        /// Cache page number (slot index).
        slot: u64,
    },
    /// A GIPT entry was removed (the slot's page was evicted).
    GiptEvict {
        /// Cache page number (slot index).
        slot: u64,
        /// Whether the eviction wrote the page back.
        dirty: bool,
    },
    /// Free-queue state after a fill or eviction.
    FreeQueueDepth {
        /// Slots currently free.
        free: u64,
        /// Victims queued for eviction.
        pending: u64,
    },
    /// A dirty page was written back off-package at eviction.
    DirtyWriteback,
    /// An L2 writeback arrived for a slot whose page already left.
    StaleWriteback,
    /// One DRAM device access (block or page granularity).
    DramAccess {
        /// Which device.
        device: Device,
        /// Whether it was a write.
        write: bool,
        /// Row-buffer outcome.
        row: RowEvent,
        /// Data-bus occupancy of the transfer.
        busy: u64,
    },
}

/// Event families, for `--events` filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventGroup {
    /// Core retire/stall epochs.
    Core,
    /// Conventional TLB levels and page walks.
    Tlb,
    /// cTLB hit/miss outcomes.
    Ctlb,
    /// Page fills, bypasses, rescues.
    Fill,
    /// Free-queue depth samples.
    Queue,
    /// GIPT inserts/evicts.
    Gipt,
    /// DRAM device accesses.
    Dram,
    /// Page-level writebacks.
    Writeback,
}

impl EventGroup {
    /// Every group, in display order.
    pub const ALL: [EventGroup; 8] = [
        EventGroup::Core,
        EventGroup::Tlb,
        EventGroup::Ctlb,
        EventGroup::Fill,
        EventGroup::Queue,
        EventGroup::Gipt,
        EventGroup::Dram,
        EventGroup::Writeback,
    ];

    /// The group's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            EventGroup::Core => "core",
            EventGroup::Tlb => "tlb",
            EventGroup::Ctlb => "ctlb",
            EventGroup::Fill => "fill",
            EventGroup::Queue => "queue",
            EventGroup::Gipt => "gipt",
            EventGroup::Dram => "dram",
            EventGroup::Writeback => "wb",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<EventGroup> {
        EventGroup::ALL.iter().copied().find(|g| g.name() == s)
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

impl ProbeEvent {
    /// The family this event belongs to.
    pub fn group(&self) -> EventGroup {
        match self {
            ProbeEvent::Retire { .. }
            | ProbeEvent::MemStall { .. }
            | ProbeEvent::TlbStall { .. } => EventGroup::Core,
            ProbeEvent::TlbLookup { .. }
            | ProbeEvent::TlbInsert { .. }
            | ProbeEvent::PageWalk { .. } => EventGroup::Tlb,
            ProbeEvent::CtlbHit { .. } | ProbeEvent::CtlbMiss { .. } => EventGroup::Ctlb,
            ProbeEvent::PageFill { .. }
            | ProbeEvent::FillBypass { .. }
            | ProbeEvent::Rescue => EventGroup::Fill,
            ProbeEvent::FreeQueueDepth { .. } => EventGroup::Queue,
            ProbeEvent::GiptInsert { .. } | ProbeEvent::GiptEvict { .. } => EventGroup::Gipt,
            ProbeEvent::DramAccess { .. } => EventGroup::Dram,
            ProbeEvent::DirtyWriteback | ProbeEvent::StaleWriteback => EventGroup::Writeback,
        }
    }

    /// Events too frequent for the raw stream; they only feed the
    /// per-epoch interval counters.
    fn counter_only(&self) -> bool {
        matches!(
            self,
            ProbeEvent::Retire { .. }
                | ProbeEvent::TlbLookup { .. }
                | ProbeEvent::CtlbHit { .. }
        )
    }
}

/// A named slice of simulator wall time, for phase attribution.
///
/// These are *host-time* spans (where does the simulation spend its
/// own wall clock), not simulated-cycle events: `tdc prof` runs one
/// probed cell with a [`crate::obs::ProfProbe`] and reports how the
/// run's wall time splits across these phases. The set is closed and
/// checked: the root `tests/design_sync.rs` requires a probed run to
/// emit every variant declared here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Address translation: the tagless translate path or, for
    /// conventional organizations, the whole L3 translate call.
    Translation,
    /// cTLB lookups and inserts inside the tagless MMU.
    Ctlb,
    /// GIPT insert/remove and the off-package PTE maintenance writes.
    Gipt,
    /// L3 cache data access and writeback handling.
    CacheAccess,
    /// DRAM controller timing (both devices).
    Dram,
    /// Everything else in the run loop: trace generation, core
    /// bookkeeping, statistics assembly.
    Bookkeeping,
}

impl Phase {
    /// Number of phases, for fixed-size accumulator arrays.
    pub const COUNT: usize = 6;

    /// All phases in report order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Translation,
        Phase::Ctlb,
        Phase::Gipt,
        Phase::CacheAccess,
        Phase::Dram,
        Phase::Bookkeeping,
    ];

    /// Dense index into per-phase accumulator arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        match self {
            Phase::Translation => 0,
            Phase::Ctlb => 1,
            Phase::Gipt => 2,
            Phase::CacheAccess => 3,
            Phase::Dram => 4,
            Phase::Bookkeeping => 5,
        }
    }

    /// Stable machine-readable name used in `prof.json` and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Translation => "translation",
            Phase::Ctlb => "ctlb",
            Phase::Gipt => "gipt",
            Phase::CacheAccess => "cache_access",
            Phase::Dram => "dram",
            Phase::Bookkeeping => "bookkeeping",
        }
    }
}

/// The instrumentation hook every simulator layer is generic over.
///
/// The default methods make any implementor opt-in per event; the
/// canonical no-op is [`NoProbe`]. Call sites guard with
/// [`Probe::enabled`] so argument construction also folds away:
///
/// ```
/// use tdc_util::probe::{NoProbe, Probe, ProbeEvent};
/// let mut p = NoProbe;
/// if p.enabled() {
///     p.emit(42, ProbeEvent::Rescue); // dead code under NoProbe
/// }
/// assert!(!p.enabled());
/// ```
pub trait Probe {
    /// Whether emissions are observed at all. `false` lets the
    /// optimizer delete the instrumentation entirely.
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event at cycle `now`.
    #[inline(always)]
    fn emit(&mut self, now: Cycle, event: ProbeEvent) {
        let _ = (now, event);
    }

    /// Whether wall-time phase spans are observed. Separate from
    /// [`Probe::enabled`] so a profiling probe can collect phase
    /// timings without paying for cycle-event recording (and vice
    /// versa); `false` lets the optimizer delete the span calls.
    #[inline(always)]
    fn prof_enabled(&self) -> bool {
        false
    }

    /// Opens a wall-time span attributed to `phase`. Call sites guard
    /// with [`Probe::prof_enabled`], mirroring `enabled`/`emit`.
    #[inline(always)]
    fn phase_begin(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Closes the innermost open span, which must be for `phase`.
    #[inline(always)]
    fn phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }
}

/// The monomorphized no-op probe: the default type parameter
/// everywhere, costing nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// Per-device counters within one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DeviceInterval {
    reads: u64,
    writes: u64,
    row_hits: u64,
    busy_cycles: u64,
}

/// Counters accumulated over one telemetry epoch.
#[derive(Debug, Clone, Default, PartialEq)]
struct Interval {
    retired_instrs: u64,
    mem_stall_cycles: u64,
    tlb_stall_cycles: u64,
    tlb_l1_hits: u64,
    tlb_l1_misses: u64,
    tlb_l2_hits: u64,
    tlb_l2_misses: u64,
    tlb_inserts: u64,
    tlb_evictions: u64,
    page_walks: u64,
    page_walk_cycles: u64,
    ctlb_hits: u64,
    ctlb_misses: u64,
    victim_hits: u64,
    page_fills: u64,
    page_fill_cycles: u64,
    fill_bypasses: u64,
    filtered_fill_bypasses: u64,
    rescues: u64,
    gipt_inserts: u64,
    gipt_evictions: u64,
    dirty_page_writebacks: u64,
    stale_writebacks: u64,
    free_last: Option<u64>,
    free_min: Option<u64>,
    pending_max: Option<u64>,
    dram: [DeviceInterval; 2],
}

impl Interval {
    fn absorb(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Retire { instrs, .. } => self.retired_instrs += instrs,
            ProbeEvent::MemStall { cycles, .. } => self.mem_stall_cycles += cycles,
            ProbeEvent::TlbStall { cycles, .. } => self.tlb_stall_cycles += cycles,
            ProbeEvent::TlbLookup { level, hit } => match (level, hit) {
                (1, true) => self.tlb_l1_hits += 1,
                (1, false) => self.tlb_l1_misses += 1,
                (_, true) => self.tlb_l2_hits += 1,
                (_, false) => self.tlb_l2_misses += 1,
            },
            ProbeEvent::TlbInsert { evicted, .. } => {
                self.tlb_inserts += 1;
                if evicted {
                    self.tlb_evictions += 1;
                }
            }
            ProbeEvent::PageWalk { cycles, .. } => {
                self.page_walks += 1;
                self.page_walk_cycles += cycles;
            }
            ProbeEvent::CtlbHit { .. } => self.ctlb_hits += 1,
            ProbeEvent::CtlbMiss { victim_hit, .. } => {
                self.ctlb_misses += 1;
                if victim_hit {
                    self.victim_hits += 1;
                }
            }
            ProbeEvent::PageFill { cycles } => {
                self.page_fills += 1;
                self.page_fill_cycles += cycles;
            }
            ProbeEvent::FillBypass { filtered } => {
                self.fill_bypasses += 1;
                if filtered {
                    self.filtered_fill_bypasses += 1;
                }
            }
            ProbeEvent::Rescue => self.rescues += 1,
            ProbeEvent::GiptInsert { .. } => self.gipt_inserts += 1,
            ProbeEvent::GiptEvict { .. } => self.gipt_evictions += 1,
            ProbeEvent::FreeQueueDepth { free, pending } => {
                self.free_last = Some(free);
                self.free_min = Some(self.free_min.map_or(free, |m| m.min(free)));
                self.pending_max = Some(self.pending_max.map_or(pending, |m| m.max(pending)));
            }
            ProbeEvent::DirtyWriteback => self.dirty_page_writebacks += 1,
            ProbeEvent::StaleWriteback => self.stale_writebacks += 1,
            ProbeEvent::DramAccess {
                device,
                write,
                row,
                busy,
            } => {
                let d = &mut self.dram[device.index()];
                if write {
                    d.writes += 1;
                } else {
                    d.reads += 1;
                }
                if row == RowEvent::Hit {
                    d.row_hits += 1;
                }
                d.busy_cycles += busy;
            }
        }
    }
}

/// Default raw-event cap (~1M events); see [`Recorder::with_max_events`].
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// Collects probe events into per-epoch interval counters plus a capped
/// raw stream, and exports both sinks.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch_cycles: Cycle,
    mask: u32,
    events: Vec<(Cycle, ProbeEvent)>,
    max_events: usize,
    dropped: u64,
    total: u64,
    intervals: BTreeMap<u64, Interval>,
}

impl Recorder {
    /// A recorder bucketing counters every `epoch_cycles` cycles, with
    /// every event group enabled.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero.
    pub fn new(epoch_cycles: Cycle) -> Self {
        assert!(epoch_cycles > 0, "epoch must be at least one cycle");
        Self {
            epoch_cycles,
            mask: u32::MAX,
            events: Vec::new(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped: 0,
            total: 0,
            intervals: BTreeMap::new(),
        }
    }

    /// Restricts recording to the given groups.
    pub fn with_groups(mut self, groups: &[EventGroup]) -> Self {
        self.mask = groups.iter().fold(0, |m, g| m | g.bit());
        self
    }

    /// Caps the raw event stream (intervals are unaffected; overflow is
    /// counted in [`Recorder::dropped`]).
    pub fn with_max_events(mut self, cap: usize) -> Self {
        self.max_events = cap;
        self
    }

    /// The configured epoch length.
    pub fn epoch_cycles(&self) -> Cycle {
        self.epoch_cycles
    }

    /// The raw event stream recorded so far.
    pub fn events(&self) -> &[(Cycle, ProbeEvent)] {
        &self.events
    }

    /// Raw events dropped by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events observed (including counter-only and capped ones).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Number of non-empty epochs.
    pub fn epochs(&self) -> usize {
        self.intervals.len()
    }

    /// Records one event (the [`Probe`] entry point).
    ///
    /// Event capture is opt-in instrumentation — bench kernels attach
    /// the null probe, so this body never runs on a timed path; its
    /// buffers are the diagnostic product itself.
    pub fn record(&mut self, now: Cycle, ev: ProbeEvent) {
        if self.mask & ev.group().bit() == 0 {
            return;
        }
        self.total += 1;
        self.intervals
            .entry(now / self.epoch_cycles)
            .or_default()
            .absorb(&ev);
        if !ev.counter_only() {
            if self.events.len() < self.max_events {
                self.events.push((now, ev));
            } else {
                self.dropped += 1;
            }
        }
    }

    /// The interval-telemetry sink: per-epoch counter series as an
    /// object of parallel arrays (one entry per non-empty epoch; the
    /// free-queue level is carried forward across epochs without
    /// samples).
    pub fn timeseries_json(&self) -> Json {
        // One column per counter, aligned over the sorted epochs.
        let col = |f: &dyn Fn(&Interval) -> Json| -> Json {
            Json::Arr(self.intervals.values().map(f).collect())
        };
        let u = |g: fn(&Interval) -> u64| col(&|iv| Json::from(g(iv)));
        let epoch_start = Json::Arr(
            self.intervals
                .keys()
                .map(|e| Json::from(e * self.epoch_cycles))
                .collect(),
        );
        let mut carried: Option<u64> = None;
        let free_queue_free = Json::Arr(
            self.intervals
                .values()
                .map(|iv| {
                    if iv.free_last.is_some() {
                        carried = iv.free_last;
                    }
                    carried.map_or(Json::Null, Json::from)
                })
                .collect(),
        );
        let d = |dev: usize, g: fn(&DeviceInterval) -> u64| {
            col(&move |iv| Json::from(g(&iv.dram[dev])))
        };
        let series = Json::obj([
            ("epoch_start", epoch_start),
            ("retired_instrs", u(|i| i.retired_instrs)),
            ("mem_stall_cycles", u(|i| i.mem_stall_cycles)),
            ("tlb_stall_cycles", u(|i| i.tlb_stall_cycles)),
            ("tlb_l1_hits", u(|i| i.tlb_l1_hits)),
            ("tlb_l1_misses", u(|i| i.tlb_l1_misses)),
            ("tlb_l2_hits", u(|i| i.tlb_l2_hits)),
            ("tlb_l2_misses", u(|i| i.tlb_l2_misses)),
            ("tlb_inserts", u(|i| i.tlb_inserts)),
            ("tlb_evictions", u(|i| i.tlb_evictions)),
            ("page_walks", u(|i| i.page_walks)),
            ("page_walk_cycles", u(|i| i.page_walk_cycles)),
            ("ctlb_hits", u(|i| i.ctlb_hits)),
            ("ctlb_misses", u(|i| i.ctlb_misses)),
            ("victim_hits", u(|i| i.victim_hits)),
            ("page_fills", u(|i| i.page_fills)),
            ("page_fill_cycles", u(|i| i.page_fill_cycles)),
            ("fill_bypasses", u(|i| i.fill_bypasses)),
            ("filtered_fill_bypasses", u(|i| i.filtered_fill_bypasses)),
            ("rescues", u(|i| i.rescues)),
            ("gipt_inserts", u(|i| i.gipt_inserts)),
            ("gipt_evictions", u(|i| i.gipt_evictions)),
            ("dirty_page_writebacks", u(|i| i.dirty_page_writebacks)),
            ("stale_writebacks", u(|i| i.stale_writebacks)),
            ("free_queue_free", free_queue_free),
            ("free_queue_free_min", col(&|iv| iv.free_min.map_or(Json::Null, Json::from))),
            (
                "free_queue_pending_max",
                col(&|iv| iv.pending_max.map_or(Json::Null, Json::from)),
            ),
            ("dram_in_pkg_reads", d(0, |v| v.reads)),
            ("dram_in_pkg_writes", d(0, |v| v.writes)),
            ("dram_in_pkg_row_hits", d(0, |v| v.row_hits)),
            ("dram_in_pkg_busy_cycles", d(0, |v| v.busy_cycles)),
            ("dram_off_pkg_reads", d(1, |v| v.reads)),
            ("dram_off_pkg_writes", d(1, |v| v.writes)),
            ("dram_off_pkg_row_hits", d(1, |v| v.row_hits)),
            ("dram_off_pkg_busy_cycles", d(1, |v| v.busy_cycles)),
        ]);
        Json::obj([
            ("epoch_cycles", Json::from(self.epoch_cycles)),
            ("epochs", Json::from(self.intervals.len() as u64)),
            ("total_events", Json::from(self.total)),
            ("dropped_events", Json::from(self.dropped)),
            ("series", series),
        ])
    }

    /// The Chrome trace-event sink: a JSON object loadable in Perfetto
    /// or `chrome://tracing`. One simulated cycle is exported as one
    /// microsecond of trace time.
    pub fn chrome_trace_json(&self) -> Json {
        let mut out = Vec::new();
        let meta = |tid: u64, name: &str| {
            Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(tid)),
                ("args", Json::obj([("name", Json::from(name))])),
            ])
        };
        out.push(Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(0u64)),
            ("args", Json::obj([("name", Json::from("tdc-sim"))])),
        ]));
        out.push(meta(TID_MGMT, "cache-mgmt"));
        let max_core = self
            .events
            .iter()
            .filter_map(|(_, ev)| match ev {
                ProbeEvent::MemStall { core, .. }
                | ProbeEvent::TlbStall { core, .. }
                | ProbeEvent::PageWalk { core, .. }
                | ProbeEvent::CtlbMiss { core, .. } => Some(*core),
                _ => None,
            })
            .max();
        if let Some(m) = max_core {
            for c in 0..=m {
                out.push(meta(TID_CORE0 + c as u64, &format!("core{c}")));
            }
        }
        out.push(meta(TID_DRAM_IN, "dram-in-pkg"));
        out.push(meta(TID_DRAM_OFF, "dram-off-pkg"));
        for (now, ev) in &self.events {
            out.push(trace_event(*now, ev));
        }
        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::from("ms")),
            (
                "otherData",
                Json::obj([
                    ("producer", Json::from("tdc trace")),
                    ("time_unit", Json::from("1 cycle = 1us")),
                    ("dropped_events", Json::from(self.dropped)),
                ]),
            ),
        ])
    }
}

const TID_MGMT: u64 = 0;
const TID_CORE0: u64 = 1;
const TID_DRAM_IN: u64 = 100;
const TID_DRAM_OFF: u64 = 101;

/// One raw event as a Chrome trace-event object.
fn trace_event(now: Cycle, ev: &ProbeEvent) -> Json {
    let slice = |name: &str, tid: u64, dur: u64, args: Json| {
        Json::obj([
            ("name", Json::from(name)),
            ("ph", Json::from("X")),
            ("ts", Json::from(now)),
            ("dur", Json::from(dur)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(tid)),
            ("args", args),
        ])
    };
    let instant = |name: &str, tid: u64, args: Json| {
        Json::obj([
            ("name", Json::from(name)),
            ("ph", Json::from("i")),
            ("ts", Json::from(now)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(tid)),
            ("s", Json::from("t")),
            ("args", args),
        ])
    };
    let no_args = Json::obj([] as [(&str, Json); 0]);
    match *ev {
        // Counter-only events never reach the raw stream, but stay
        // renderable in case a custom Probe forwards them here.
        ProbeEvent::Retire { core, instrs } => instant(
            "retire",
            TID_CORE0 + core as u64,
            Json::obj([("instrs", Json::from(instrs))]),
        ),
        ProbeEvent::TlbLookup { level, hit } => instant(
            "tlb_lookup",
            TID_MGMT,
            Json::obj([
                ("level", Json::from(level as u64)),
                ("hit", Json::Bool(hit)),
            ]),
        ),
        ProbeEvent::CtlbHit { core, cached } => instant(
            "ctlb_hit",
            TID_CORE0 + core as u64,
            Json::obj([("cached", Json::Bool(cached))]),
        ),
        ProbeEvent::MemStall { core, cycles } => {
            slice("mem_stall", TID_CORE0 + core as u64, cycles, no_args)
        }
        ProbeEvent::TlbStall { core, cycles } => {
            slice("tlb_stall", TID_CORE0 + core as u64, cycles, no_args)
        }
        ProbeEvent::PageWalk { core, cycles } => {
            slice("page_walk", TID_CORE0 + core as u64, cycles, no_args)
        }
        ProbeEvent::TlbInsert { level, evicted } => instant(
            "tlb_insert",
            TID_MGMT,
            Json::obj([
                ("level", Json::from(level as u64)),
                ("evicted", Json::Bool(evicted)),
            ]),
        ),
        ProbeEvent::CtlbMiss { core, victim_hit } => instant(
            "ctlb_miss",
            TID_CORE0 + core as u64,
            Json::obj([("victim_hit", Json::Bool(victim_hit))]),
        ),
        ProbeEvent::PageFill { cycles } => slice("page_fill", TID_MGMT, cycles, no_args),
        ProbeEvent::FillBypass { filtered } => instant(
            "fill_bypass",
            TID_MGMT,
            Json::obj([("filtered", Json::Bool(filtered))]),
        ),
        ProbeEvent::Rescue => instant("rescue", TID_MGMT, no_args),
        ProbeEvent::GiptInsert { slot } => instant(
            "gipt_insert",
            TID_MGMT,
            Json::obj([("slot", Json::from(slot))]),
        ),
        ProbeEvent::GiptEvict { slot, dirty } => instant(
            "gipt_evict",
            TID_MGMT,
            Json::obj([("slot", Json::from(slot)), ("dirty", Json::Bool(dirty))]),
        ),
        ProbeEvent::FreeQueueDepth { free, pending } => Json::obj([
            ("name", Json::from("free_queue")),
            ("ph", Json::from("C")),
            ("ts", Json::from(now)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(TID_MGMT)),
            (
                "args",
                Json::obj([
                    ("free", Json::from(free)),
                    ("pending", Json::from(pending)),
                ]),
            ),
        ]),
        ProbeEvent::DirtyWriteback => instant("dirty_page_writeback", TID_MGMT, no_args),
        ProbeEvent::StaleWriteback => instant("stale_writeback", TID_MGMT, no_args),
        ProbeEvent::DramAccess {
            device,
            write,
            row,
            busy,
        } => slice(
            if write { "dram_write" } else { "dram_read" },
            match device {
                Device::InPackage => TID_DRAM_IN,
                Device::OffPackage => TID_DRAM_OFF,
            },
            busy,
            Json::obj([("row", Json::from(row.as_str()))]),
        ),
    }
}

/// A cloneable recording probe: every clone feeds the same
/// [`Recorder`]. Deliberately `!Send` — probed runs are single-threaded
/// by construction.
#[derive(Debug, Clone)]
pub struct SharedProbe {
    inner: Rc<RefCell<Recorder>>,
}

impl SharedProbe {
    /// Wraps a recorder for sharing across simulator components.
    pub fn new(recorder: Recorder) -> Self {
        Self {
            inner: Rc::new(RefCell::new(recorder)),
        }
    }

    /// Runs `f` against the shared recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Recovers the recorder: by move when this is the last clone,
    /// otherwise by clone.
    pub fn into_recorder(self) -> Recorder {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

impl Probe for SharedProbe {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, now: Cycle, event: ProbeEvent) {
        self.inner.borrow_mut().record(now, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_disabled_and_silent() {
        let mut p = NoProbe;
        assert!(!p.enabled());
        p.emit(0, ProbeEvent::Rescue); // must be a no-op
    }

    #[test]
    fn recorder_buckets_by_epoch() {
        let mut r = Recorder::new(100);
        r.record(10, ProbeEvent::Retire { core: 0, instrs: 4 });
        r.record(20, ProbeEvent::Retire { core: 0, instrs: 4 });
        r.record(250, ProbeEvent::Retire { core: 0, instrs: 8 });
        assert_eq!(r.epochs(), 2);
        let j = r.timeseries_json();
        let series = j.get("series").unwrap();
        let retired = series.get("retired_instrs").unwrap();
        let Json::Arr(vals) = retired else { panic!("array") };
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].as_u64(), Some(8));
        assert_eq!(vals[1].as_u64(), Some(8));
        let starts = series.get("epoch_start").unwrap();
        let Json::Arr(s) = starts else { panic!("array") };
        assert_eq!(s[0].as_u64(), Some(0));
        assert_eq!(s[1].as_u64(), Some(200));
    }

    #[test]
    fn counter_only_events_skip_raw_stream() {
        let mut r = Recorder::new(100);
        r.record(1, ProbeEvent::CtlbHit { core: 0, cached: true });
        r.record(2, ProbeEvent::CtlbMiss { core: 0, victim_hit: false });
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.total_events(), 2);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut r = Recorder::new(100).with_max_events(2);
        for i in 0..5 {
            r.record(i, ProbeEvent::Rescue);
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 3);
        // Interval counters still see everything.
        let j = r.timeseries_json();
        let Json::Arr(vals) = j.get("series").unwrap().get("rescues").unwrap() else {
            panic!("array")
        };
        assert_eq!(vals[0].as_u64(), Some(5));
    }

    #[test]
    fn group_filter_drops_unselected() {
        let mut r = Recorder::new(100).with_groups(&[EventGroup::Fill]);
        r.record(1, ProbeEvent::Rescue);
        r.record(2, ProbeEvent::DirtyWriteback);
        assert_eq!(r.total_events(), 1);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn group_names_round_trip() {
        for g in EventGroup::ALL {
            assert_eq!(EventGroup::from_name(g.name()), Some(g));
        }
        assert_eq!(EventGroup::from_name("nosuch"), None);
    }

    #[test]
    fn free_queue_carries_forward() {
        let mut r = Recorder::new(100);
        r.record(10, ProbeEvent::FreeQueueDepth { free: 4, pending: 1 });
        r.record(110, ProbeEvent::Rescue); // epoch without a depth sample
        let j = r.timeseries_json();
        let Json::Arr(free) = j.get("series").unwrap().get("free_queue_free").unwrap()
        else {
            panic!("array")
        };
        assert_eq!(free[0].as_u64(), Some(4));
        assert_eq!(free[1].as_u64(), Some(4), "carried forward");
        let Json::Arr(min) = j.get("series").unwrap().get("free_queue_free_min").unwrap()
        else {
            panic!("array")
        };
        assert_eq!(min[1], Json::Null, "no sample in second epoch");
    }

    #[test]
    fn chrome_trace_shape() {
        let mut r = Recorder::new(100);
        r.record(5, ProbeEvent::MemStall { core: 1, cycles: 30 });
        r.record(
            7,
            ProbeEvent::DramAccess {
                device: Device::OffPackage,
                write: false,
                row: RowEvent::Conflict,
                busy: 4,
            },
        );
        r.record(9, ProbeEvent::FreeQueueDepth { free: 2, pending: 0 });
        let j = r.chrome_trace_json();
        let Json::Arr(events) = j.get("traceEvents").unwrap() else { panic!("array") };
        // Metadata (process + mgmt + core0..1 + two dram tracks) + 3 events.
        assert_eq!(events.len(), 6 + 3);
        let stall = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("mem_stall"))
            .expect("stall slice present");
        assert_eq!(stall.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(30));
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(5));
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("free_queue"))
            .expect("counter present");
        assert_eq!(counter.get("ph").unwrap().as_str(), Some("C"));
        // The export must survive a strict parse round-trip.
        let text = j.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn shared_probe_clones_feed_one_recorder() {
        let probe = SharedProbe::new(Recorder::new(1000));
        let mut a = probe.clone();
        let mut b = probe.clone();
        assert!(a.enabled());
        a.emit(1, ProbeEvent::Rescue);
        b.emit(2, ProbeEvent::DirtyWriteback);
        drop(a);
        drop(b);
        let r = probe.into_recorder();
        assert_eq!(r.events().len(), 2);
    }
}
