//! Quiescent-state-based reclamation (QSBR).
//!
//! Several tables in the paper's evaluation reclaim memory with QSBR
//! protocols: the junction tables and the `RCU QSBR` variant require the
//! user to "regularly call a designated function" (§8.1.1/§8.1.2).  This
//! module provides that substrate: a [`QsbrDomain`] with explicitly
//! registered participants, deferred destruction of retired objects, and
//! reclamation once every registered participant has passed through a
//! quiescent state.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use growt_iface::sync::lock;

type Deferred = Box<dyn FnOnce() + Send>;

/// Shared state of one registered participant (thread).
struct ParticipantState {
    /// The last global epoch this participant has announced as quiescent.
    quiescent_epoch: AtomicU64,
    /// Whether the participant is still registered.
    active: AtomicBool,
}

/// A QSBR domain.  Objects retired into the domain are destroyed only
/// after every registered participant has subsequently reported a
/// quiescent state.
pub struct QsbrDomain {
    /// Epoch counter; bumped on every retirement batch.
    global_epoch: AtomicU64,
    participants: Mutex<Vec<Arc<ParticipantState>>>,
    /// Retired objects tagged with the epoch in which they were retired.
    limbo: Mutex<Vec<(u64, Deferred)>>,
    /// Advisory limbo size so [`QsbrDomain::try_reclaim`] — which callers
    /// invoke from per-operation quiescence announcements — can skip both
    /// mutexes entirely while nothing is retired (the common case for
    /// read/insert-heavy participants).
    pending_hint: AtomicUsize,
}

impl Default for QsbrDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl QsbrDomain {
    /// Create an empty domain.
    pub fn new() -> Self {
        QsbrDomain {
            global_epoch: AtomicU64::new(1),
            participants: Mutex::new(Vec::new()),
            limbo: Mutex::new(Vec::new()),
            pending_hint: AtomicUsize::new(0),
        }
    }

    /// Register the calling thread; the returned guard must be kept alive
    /// for as long as the thread accesses protected objects and must
    /// periodically call [`QsbrParticipant::quiescent`].
    pub fn register(self: &Arc<Self>) -> QsbrParticipant {
        let state = Arc::new(ParticipantState {
            quiescent_epoch: AtomicU64::new(self.global_epoch.load(Ordering::Acquire)),
            active: AtomicBool::new(true),
        });
        lock(&self.participants).push(Arc::clone(&state));
        QsbrParticipant {
            domain: Arc::clone(self),
            state,
        }
    }

    /// Retire an object; `drop_fn` runs once the object is safe to free.
    pub fn retire(&self, drop_fn: Deferred) {
        let epoch = self.global_epoch.fetch_add(1, Ordering::AcqRel);
        lock(&self.limbo).push((epoch, drop_fn));
        self.pending_hint.fetch_add(1, Ordering::Release);
        // A thread that dies here (after the retire, before its next
        // quiescent announcement) must not strand the object: dropping
        // its participant unregisters it, and the remaining participants'
        // announcements drain the limbo list.
        growt_failpoints::fire("qsbr.retire");
    }

    /// Number of objects waiting in the limbo list (for tests/diagnostics).
    pub fn pending(&self) -> usize {
        lock(&self.limbo).len()
    }

    /// Attempt to reclaim retired objects.  Returns the number destroyed.
    pub fn try_reclaim(&self) -> usize {
        // Fast path: nothing in limbo — no locks.  The hint is advisory
        // (a retire racing this load is simply picked up by the next
        // quiescent announcement), so an acquire load suffices.
        if self.pending_hint.load(Ordering::Acquire) == 0 {
            return 0;
        }
        // The minimum epoch any active participant has announced; retired
        // objects from strictly earlier epochs can no longer be reached.
        let min_epoch = {
            let participants = lock(&self.participants);
            participants
                .iter()
                .filter(|p| p.active.load(Ordering::Acquire))
                .map(|p| p.quiescent_epoch.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX)
        };
        let ready: Vec<Deferred> = {
            let mut limbo = lock(&self.limbo);
            let mut ready = Vec::new();
            let mut i = 0;
            while i < limbo.len() {
                if limbo[i].0 < min_epoch {
                    ready.push(limbo.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            ready
        };
        let n = ready.len();
        if n > 0 {
            self.pending_hint.fetch_sub(n, Ordering::AcqRel);
            // Widens the window between detaching a batch from limbo and
            // destroying it; a thread dying here only leaks the detached
            // batch if the deferred closures themselves are lost, which
            // they are not — `ready` is owned by this frame and its drop
            // glue runs the destructors even on unwind.
            growt_failpoints::fire("qsbr.reclaim");
        }
        for f in ready {
            f();
        }
        n
    }

    fn unregister(&self, state: &Arc<ParticipantState>) {
        state.active.store(false, Ordering::Release);
        let mut participants = lock(&self.participants);
        participants.retain(|p| !Arc::ptr_eq(p, state));
        drop(participants);
        self.try_reclaim();
    }
}

/// Per-thread participation guard of a [`QsbrDomain`].
pub struct QsbrParticipant {
    domain: Arc<QsbrDomain>,
    state: Arc<ParticipantState>,
}

impl QsbrParticipant {
    /// Announce a quiescent state: the participant currently holds no
    /// references to any protected object.  Also opportunistically
    /// reclaims garbage.
    pub fn quiescent(&self) {
        let epoch = self.domain.global_epoch.load(Ordering::Acquire);
        self.state.quiescent_epoch.store(epoch, Ordering::Release);
        self.domain.try_reclaim();
    }

    /// Retire an object through this participant's domain.
    pub fn retire<T: Send + 'static>(&self, obj: T) {
        self.domain.retire(Box::new(move || drop(obj)));
    }

    /// The domain this participant belongs to.
    pub fn domain(&self) -> &Arc<QsbrDomain> {
        &self.domain
    }
}

impl Drop for QsbrParticipant {
    fn drop(&mut self) {
        self.domain.unregister(&self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn not_reclaimed_before_quiescence() {
        let domain = Arc::new(QsbrDomain::new());
        let participant = domain.register();
        let drops = Arc::new(AtomicUsize::new(0));
        participant.retire(DropCounter(Arc::clone(&drops)));
        assert_eq!(domain.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        participant.quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(domain.pending(), 0);
    }

    #[test]
    fn empty_limbo_reclaim_is_a_fast_path_and_counts_stay_coherent() {
        let domain = Arc::new(QsbrDomain::new());
        let p = domain.register();
        // Nothing retired: reclaims report zero work (and internally skip
        // the locks via the pending hint).
        assert_eq!(domain.try_reclaim(), 0);
        p.quiescent();
        assert_eq!(domain.pending(), 0);
        // Retire → reclaim → the hint drains back to the fast path.
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            p.retire(DropCounter(Arc::clone(&drops)));
        }
        p.quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        assert_eq!(domain.pending(), 0);
        assert_eq!(domain.try_reclaim(), 0);
    }

    #[test]
    fn waits_for_all_participants() {
        let domain = Arc::new(QsbrDomain::new());
        let p1 = domain.register();
        let p2 = domain.register();
        let drops = Arc::new(AtomicUsize::new(0));
        p1.retire(DropCounter(Arc::clone(&drops)));
        p1.quiescent();
        // p2 has not passed a quiescent state after the retirement.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        p2.quiescent();
        domain.try_reclaim();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unregister_releases_blockage() {
        let domain = Arc::new(QsbrDomain::new());
        let p1 = domain.register();
        let p2 = domain.register();
        let drops = Arc::new(AtomicUsize::new(0));
        p1.retire(DropCounter(Arc::clone(&drops)));
        p1.quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(p2); // dropping an idle participant must not block reclamation forever
        domain.try_reclaim();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_retire_and_quiesce() {
        let domain = Arc::new(QsbrDomain::new());
        let drops = Arc::new(AtomicUsize::new(0));
        let retired = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let domain = Arc::clone(&domain);
                let drops = Arc::clone(&drops);
                let retired = Arc::clone(&retired);
                s.spawn(move || {
                    let p = domain.register();
                    for i in 0..1000 {
                        p.retire(DropCounter(Arc::clone(&drops)));
                        retired.fetch_add(1, Ordering::SeqCst);
                        if i % 16 == 0 {
                            p.quiescent();
                        }
                    }
                    p.quiescent();
                });
            }
        });
        domain.try_reclaim();
        assert_eq!(drops.load(Ordering::SeqCst), retired.load(Ordering::SeqCst));
    }
}
