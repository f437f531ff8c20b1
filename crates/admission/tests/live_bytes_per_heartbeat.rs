//! An RM's memory must not grow with the heartbeats it hears, nor the
//! root arbiter's with the bundles its clusters send.
//!
//! This test binary installs a global allocator that tracks the bytes
//! live on each thread. The counter is a `const` thread-local, so
//! allocations made by the test harness's other threads stay out of it.
//!
//! An RM admits 64 clients, then hears heartbeats that carry
//! consecutive per-client sequence numbers, the way `Client` numbers its
//! envelopes: one counter per client, counting up from its `actMsg`. The
//! RM is polled whenever its next deadline falls due, so its watchdog
//! runs on schedule and reclaims no one. The live bytes after 2×10^4
//! heartbeats may exceed those after 10^4 by at most 4 KiB: a receive
//! window that keeps every sequence number a peer ever sent grows by
//! about 150 KiB over the extra 10^4.
//!
//! Only the client→RM direction is bounded here. The RM→client streams
//! share the RM's one sequence counter, so each client sees a sparse
//! subsequence of it, and a client's receive window still keeps every
//! sequence number it accepted above its floor.
//!
//! A root arbiter hears digest-only bundles from 8 clusters, each
//! numbering its bundles consecutively as `ClusterRm` does. The live
//! bytes after 2×10^4 bundles per cluster may exceed those after 10^4 by
//! at most 4 KiB: a set of every bundle seq per cluster grows by about
//! 1.5 MiB over the extra 8×10^4 bundles. The root→cluster direction is
//! sparse, like the RM→client one, and is not bounded here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoplat_admission::modes::SymmetricPolicy;
use autoplat_admission::protocol::{ClusterBundle, ClusterId, ControlMessage, Endpoint, Envelope};
use autoplat_admission::{AppId, Application, ResourceManager, RetryPolicy, RootArbiter};

thread_local! {
    /// Bytes allocated minus bytes freed on this thread. Signed: memory
    /// another thread allocated may be freed here.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Adds `delta` bytes to this thread's live total.
fn track(delta: i64) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a `Cell` in a `const` thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLIENTS: u32 = 64;

fn envelope(app: u32, seq: u64, at: u64, message: ControlMessage) -> Envelope {
    Envelope {
        from: Endpoint::Client(AppId(app)),
        to: Endpoint::Rm,
        seq,
        sent_at_cycle: at,
        message,
    }
}

#[test]
fn heartbeats_with_fresh_seqs_keep_rm_memory_flat() {
    let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 0.0);
    let activations: Vec<Envelope> = (0..CLIENTS)
        .map(|app| {
            rm.register(Application::best_effort(AppId(app), app));
            envelope(app, 0, 0, ControlMessage::Activation { app: AppId(app) })
        })
        .collect();
    // One conf round for all 64; each client acks its conf with seq 1.
    let acks: Vec<Envelope> = rm
        .receive_batch(&activations, 0)
        .iter()
        .filter(|e| e.message.name() == "confMsg")
        .map(|e| {
            let app = e.message.app();
            envelope(app.0, 1, 0, ControlMessage::Ack { app, of_seq: e.seq })
        })
        .collect();
    let _ = rm.receive_batch(&acks, 0);
    assert_eq!(rm.active().len(), CLIENTS as usize);
    assert_eq!(rm.pending_conf_count(), 0);

    // One heartbeat per cycle, clients in turn: each is heard every 64
    // cycles, well inside the default 2,000-cycle watchdog timeout.
    let mut live_after = Vec::new();
    for n in 0..20_000u64 {
        let now = 1 + n;
        let app = (n % u64::from(CLIENTS)) as u32;
        let seq = 2 + n / u64::from(CLIENTS);
        let hb = envelope(app, seq, now, ControlMessage::Heartbeat { app: AppId(app) });
        let _ = rm.receive_batch(&[hb], now);
        if rm.next_deadline().is_some_and(|due| due <= now) {
            let _ = rm.poll(now);
        }
        if n + 1 == 10_000 || n + 1 == 20_000 {
            live_after.push(LIVE_BYTES.with(Cell::get));
        }
    }
    assert_eq!(rm.reclamations(), 0, "every client stayed alive");
    assert_eq!(rm.active().len(), CLIENTS as usize);
    assert_eq!(rm.duplicates_suppressed(), 0, "every seq was fresh");
    let growth = live_after[1] - live_after[0];
    assert!(
        growth <= 4 * 1024,
        "live bytes grew by {growth} B over the second 10^4 heartbeats \
         ({} B after 10^4, {} B after 2×10^4)",
        live_after[0],
        live_after[1]
    );
}

const CLUSTERS: u32 = 8;

#[test]
fn consecutive_cluster_bundles_keep_root_memory_flat() {
    let mut root = RootArbiter::new(1_000, RetryPolicy::default(), 1_000);
    for c in 0..CLUSTERS {
        root.register_cluster(ClusterId(c), 0);
    }
    // One bundle per cycle, clusters in turn: each is heard every 8
    // cycles, well inside the 1,000-cycle cluster timeout.
    let mut live_after = Vec::new();
    for n in 0..20_000 * u64::from(CLUSTERS) {
        let now = 1 + n;
        let digest = ClusterBundle {
            cluster: ClusterId((n % u64::from(CLUSTERS)) as u32),
            seq: n / u64::from(CLUSTERS),
            sent_at_cycle: now,
            live_clients: 0,
            items: Vec::new(),
        };
        assert!(
            root.receive(&digest, now).is_none(),
            "a digest needs no answer"
        );
        if (n + 1) % (10_000 * u64::from(CLUSTERS)) == 0 {
            live_after.push(LIVE_BYTES.with(Cell::get));
        }
    }
    assert!(root.poll(20_000 * u64::from(CLUSTERS)).is_empty());
    assert_eq!(root.cluster_reclaims(), 0, "every cluster stayed alive");
    assert_eq!(root.duplicate_bundles(), 0, "every seq was fresh");
    let growth = live_after[1] - live_after[0];
    assert!(
        growth <= 4 * 1024,
        "live bytes grew by {growth} B over the second 10^4 bundles per cluster \
         ({} B after 10^4, {} B after 2×10^4)",
        live_after[0],
        live_after[1]
    );
}
