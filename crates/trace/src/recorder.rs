//! The flight recorder: an always-on, fixed-memory ring of the last N
//! communication events per thread, dumped as a JSON timeline when a
//! fault fires.
//!
//! Rationale: the chaos runtime reports failures as typed `CommError`s,
//! but a bare "receive timed out waiting for (src 2, tag 7)" says
//! nothing about the moments leading up to it. The recorder keeps a
//! black-box trace of protocol-level events (sends, deliveries,
//! injected faults, timeouts, checkpoints) regardless of whether
//! tracing is enabled — recording is a handful of relaxed atomic stores
//! into a pre-sized ring, with **no allocation and no locks** on the
//! recording path — so when a rank dies, its last moments (and its
//! peers') are attached to the error instead of lost.
//!
//! Rings wrap (newest overwrites oldest), unlike the saturating span
//! buffers: for a crash dump the *most recent* events are the valuable
//! ones. Each slot is a fixed set of `AtomicU64` words written with
//! relaxed stores by the owning thread; a dump taken from another thread
//! (e.g. rank 0 reporting rank 3's death) may catch the single in-flight
//! record half-written, which is acceptable for a diagnostic artifact
//! and is data-race-free by construction.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Records retained per thread (ring wraps beyond this).
pub const RING_CAPACITY: usize = 512;

macro_rules! flight_kinds {
    ($( $variant:ident => $name:literal ),+ $(,)?) => {
        /// What happened. Stable names appear in the JSON dump.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FlightKind {
            $( $variant ),+
        }

        impl FlightKind {
            pub fn name(self) -> &'static str {
                match self { $( FlightKind::$variant => $name ),+ }
            }

            fn from_u8(v: u8) -> FlightKind {
                let all = [$( FlightKind::$variant ),+];
                all.get(v as usize).copied().unwrap_or(FlightKind::Unknown)
            }
        }
    };
}

flight_kinds! {
    Unknown       => "unknown",
    Send          => "send",
    Deliver       => "deliver",
    Timeout       => "timeout",
    FaultInjected => "fault_injected",
    Kill          => "kill",
    StepBegin     => "step_begin",
    Checkpoint    => "checkpoint",
    Restart       => "restart",
    Error         => "error",
    // `from_u8` decodes positionally: records are packed and unpacked by
    // the same build, and a dump names each kind, never its number.
    Recover       => "recover",
    Alert         => "alert",
}

/// One black-box record. `src`/`dst`/`tag`/`seq` carry the message
/// identity for protocol events; non-message events reuse the fields
/// as documented at the call site (e.g. `seq` = step for `StepBegin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    pub kind: FlightKind,
    /// Rank the record was made on ([`crate::spans::NO_RANK`] outside
    /// rank threads).
    pub rank: u32,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    pub src: u32,
    pub dst: u32,
    pub tag: u64,
    pub seq: u64,
}

/// Words per slot: (kind | rank | src | dst) packed, t_ns, tag, seq.
const WORDS: usize = 4;

struct Ring {
    slots: Box<[AtomicU64]>,
    /// Total records ever written (next slot = `head % RING_CAPACITY`).
    head: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: (0..RING_CAPACITY * WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Owner-thread-only append (relaxed stores; wrapping overwrite).
    fn push(&self, r: FlightRecord) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize % RING_CAPACITY) * WORDS;
        let w0 = (r.kind as u64)
            | ((r.rank as u64) << 8)
            | ((r.src as u64) << 24)
            | ((r.dst as u64) << 40);
        self.slots[base].store(w0, Ordering::Relaxed);
        self.slots[base + 1].store(r.t_ns, Ordering::Relaxed);
        self.slots[base + 2].store(r.tag, Ordering::Relaxed);
        self.slots[base + 3].store(r.seq, Ordering::Relaxed);
        // Publish after the words so a concurrent snapshot never reads
        // beyond fully-stored slots of *this* thread's latest record.
        self.head.store(h + 1, Ordering::Release);
    }

    fn snapshot_into(&self, out: &mut Vec<FlightRecord>) {
        let h = self.head.load(Ordering::Acquire);
        let n = (h as usize).min(RING_CAPACITY);
        for i in 0..n {
            let base = i * WORDS;
            let w0 = self.slots[base].load(Ordering::Relaxed);
            out.push(FlightRecord {
                kind: FlightKind::from_u8((w0 & 0xff) as u8),
                rank: ((w0 >> 8) & 0xffff) as u32,
                src: ((w0 >> 24) & 0xffff) as u32,
                dst: ((w0 >> 40) & 0xffff) as u32,
                t_ns: self.slots[base + 1].load(Ordering::Relaxed),
                tag: self.slots[base + 2].load(Ordering::Relaxed),
                seq: self.slots[base + 3].load(Ordering::Relaxed),
            });
        }
    }
}

/// One hub's flight-ring registry: every thread that records into the
/// hub registers one [`Ring`] here (found via a per-thread cache keyed
/// by hub id).
pub(crate) struct Registry {
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            rings: Mutex::new(Vec::new()),
        }
    }

    fn register(&self) -> Arc<Ring> {
        let ring = Arc::new(Ring::new());
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Snapshot every thread's ring, oldest-first per thread, merged
    /// and sorted by timestamp.
    pub(crate) fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out = Vec::new();
        for ring in self.rings.lock().unwrap().iter() {
            ring.snapshot_into(&mut out);
        }
        out.sort_by_key(|r| (r.t_ns, r.rank));
        out
    }
}

thread_local! {
    /// This thread's rings, one per live hub it has recorded into.
    static RING_CACHE: crate::hub::ThreadBufCache<Ring> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Rank value stored for threads outside any rank (fits the 16-bit
/// packed field, unlike `spans::NO_RANK`).
pub(crate) const PACKED_NO_RANK: u32 = 0xffff;

/// Append one record to the calling thread's ring in `hub`. Always on.
pub(crate) fn push_flight(
    hub: &crate::TelemetryHub,
    kind: FlightKind,
    src: u32,
    dst: u32,
    tag: u64,
    seq: u64,
) {
    let rank = crate::spans::current_rank();
    let rank = if rank == crate::spans::NO_RANK {
        PACKED_NO_RANK
    } else {
        rank & 0xffff
    };
    let rec = FlightRecord {
        kind,
        rank,
        t_ns: crate::spans::now_ns(),
        src: src & 0xffff,
        dst: dst & 0xffff,
        tag,
        seq,
    };
    RING_CACHE.with(|c| {
        crate::hub::with_thread_buf(c, hub.id(), || hub.flight.register(), |ring| ring.push(rec))
    });
}

/// Rings the calling thread's cache keeps alive.
#[cfg(test)]
pub(crate) fn cached_thread_rings() -> usize {
    RING_CACHE.with(|c| c.borrow().len())
}

/// Append one record to the calling thread's ring in the current hub.
/// Always on — there is no enable gate; the cost is one clock read and
/// five relaxed stores.
#[inline]
pub fn flight(kind: FlightKind, src: u32, dst: u32, tag: u64, seq: u64) {
    crate::hub::with_current(|h| h.flight(kind, src, dst, tag, seq));
}

/// Render a snapshot as a structured JSON timeline:
/// `{"flight_recorder": {"reason": ..., "events": [...]}}`.
pub fn flight_json(reason: &str, records: &[FlightRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"flight_recorder\": {\n");
    let _ = writeln!(
        out,
        "    \"reason\": {},",
        crate::json::quoted(reason)
    );
    let _ = writeln!(out, "    \"event_count\": {},", records.len());
    out.push_str("    \"events\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let rank: i64 = if r.rank == PACKED_NO_RANK {
            -1
        } else {
            r.rank as i64
        };
        let _ = write!(
            out,
            "      {{\"t_ns\": {}, \"rank\": {}, \"kind\": {}, \"src\": {}, \"dst\": {}, \"tag\": {}, \"seq\": {}}}",
            r.t_ns,
            rank,
            crate::json::quoted(r.kind.name()),
            r.src,
            r.dst,
            r.tag,
            r.seq
        );
    }
    out.push_str("\n    ]\n  }\n}\n");
    out
}

/// Direct flight-recorder dumps triggered by [`dump_on_error`] on the
/// current hub into `dir` (`None` disables dumping). The *default*
/// hub's initial value is seeded from the `MSC_FLIGHT_DIR` environment
/// variable; this call overrides it.
pub fn set_flight_dump_dir(dir: Option<PathBuf>) {
    crate::hub::with_current(|h| h.set_flight_dump_dir(dir.clone()));
}

/// Dump the current hub's merged rings to its configured directory (see
/// [`set_flight_dump_dir`]); called by the comm runtime the moment a
/// `CommError` is constructed or a checkpoint restart fires. Also fires
/// the hub's flush hook (the live sampler's failure tail). Returns the
/// written path, or `None` when dumping is disabled or the write failed
/// (a failing dump must never mask the original error).
pub fn dump_on_error(reason: &str) -> Option<PathBuf> {
    crate::hub::with_current(|h| h.dump_on_error(reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = Ring::new();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(FlightRecord {
                kind: FlightKind::Send,
                rank: 1,
                t_ns: i,
                src: 0,
                dst: 1,
                tag: 7,
                seq: i,
            });
        }
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        // The oldest 10 records were overwritten.
        let max_seq = out.iter().map(|r| r.seq).max().unwrap();
        let min_seq = out.iter().map(|r| r.seq).min().unwrap();
        assert_eq!(max_seq, RING_CAPACITY as u64 + 9);
        assert_eq!(min_seq, 10);
    }

    #[test]
    fn records_roundtrip_packing() {
        let ring = Ring::new();
        let rec = FlightRecord {
            kind: FlightKind::FaultInjected,
            rank: 3,
            t_ns: 123_456,
            src: 2,
            dst: 3,
            tag: 0x207,
            seq: 42,
        };
        ring.push(rec);
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert_eq!(out, vec![rec]);
    }

    #[test]
    fn flight_is_always_on_and_json_renders() {
        // Fresh disabled hub: the recorder must capture regardless.
        let hub = crate::TelemetryHub::new();
        assert!(!hub.enabled());
        hub.flight(FlightKind::Timeout, 2, 0, 9, 0);
        let snap = hub.snapshot_flight();
        let mine = snap
            .iter()
            .find(|r| r.kind == FlightKind::Timeout && r.src == 2 && r.tag == 9)
            .expect("timeout record present");
        let json = flight_json("unit-test", &[*mine]);
        assert!(json.contains("\"kind\": \"timeout\""));
        assert!(json.contains("\"src\": 2"));
        assert!(json.contains("\"reason\": \"unit-test\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn alert_kind_roundtrips_at_end_of_wire_format() {
        assert_eq!(
            FlightKind::from_u8(FlightKind::Alert as u8),
            FlightKind::Alert
        );
        assert_eq!(FlightKind::Alert.name(), "alert");
        // Past-the-end stays Unknown (forward compatibility).
        assert_eq!(FlightKind::from_u8(200), FlightKind::Unknown);
    }

    #[test]
    fn dump_respects_disabled_dir() {
        let hub = crate::TelemetryHub::new();
        assert!(hub.dump_on_error("nope").is_none());
    }

    #[test]
    fn dump_writes_file_when_configured() {
        let dir = std::env::temp_dir().join("msc_flight_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let hub = crate::TelemetryHub::new();
        hub.set_flight_dump_dir(Some(dir.clone()));
        hub.flight(FlightKind::Error, 1, 2, 3, 4);
        let path = hub
            .dump_on_error("unit: timeout (src 1)")
            .expect("dump written");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"flight_recorder\""));
        assert!(body.contains("unit: timeout"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
