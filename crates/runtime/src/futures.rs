//! Multilisp-style futures (paper §3.1).
//!
//! "If the spawning process is not strict in its use of the result …
//! then a Multilisp *future* provides process creation and
//! synchronization features that permit concurrent execution." A
//! future is a placeholder value the producing task resolves. The
//! table has one way to wait, the pool's `touch` hook: it polls
//! [`FutureTable::try_get`] and runs queued tasks while the future is
//! pending, so nothing ever sleeps on a slot.

use curare_lisp::sync::{AppendVec, Mutex};

use curare_lisp::{LispError, Value};

/// One future: its outcome once written (`None` while pending).
type FutureSlot = Mutex<Option<Result<Value, LispError>>>;

/// The table of live futures; `Value::future(id)` indexes into it.
/// Slots never move, so every operation but `create` finds its slot
/// without a lock.
#[derive(Default)]
pub struct FutureTable {
    slots: AppendVec<FutureSlot>,
}

impl FutureTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a pending future; returns its value handle.
    pub fn create(&self) -> Value {
        Value::future(self.slots.push(Mutex::new(None)) as u64)
    }

    fn slot(&self, id: u64) -> Option<&FutureSlot> {
        self.slots.get(usize::try_from(id).ok()?)
    }

    /// Resolve future `id` with a value. First write wins: returns
    /// false (and changes nothing) when the future is already resolved
    /// or failed, so no second writer can overwrite the result a
    /// waiter may already have observed.
    pub fn resolve(&self, id: u64, v: Value) -> bool {
        self.write(id, Ok(v))
    }

    /// Fail future `id` with an error. First write wins, as in
    /// [`FutureTable::resolve`].
    pub fn fail(&self, id: u64, e: LispError) -> bool {
        self.write(id, Err(e))
    }

    fn write(&self, id: u64, outcome: Result<Value, LispError>) -> bool {
        crate::chaos::on_future_resolve();
        let Some(slot) = self.slot(id) else { return false };
        let mut st = slot.lock();
        if st.is_some() {
            return false;
        }
        *st = Some(outcome);
        drop(st);
        curare_obs::record(curare_obs::EventKind::FutureResolve, id);
        true
    }

    /// Ids of futures still pending, for the watchdog's stall dumps.
    /// (An aborted run fails the futures of the tasks it drops as it
    /// drops them, in the pool's `drop_unpublished`.)
    pub fn pending_ids(&self) -> Vec<u64> {
        let pending = self.slots.iter().map(|s| s.lock().is_none());
        pending.enumerate().filter(|&(_, p)| p).map(|(i, _)| i as u64).collect()
    }

    /// Non-blocking read: `Some(result)` if resolved (`None` too for
    /// an id the table never handed out).
    pub fn try_get(&self, id: u64) -> Option<Result<Value, LispError>> {
        self.slot(id)?.lock().clone()
    }

    /// Non-blocking probe: the touch hook's fast check, and `run_chain`'s
    /// cue to stop helping once the touched future is resolved.
    pub fn is_resolved(&self, id: u64) -> bool {
        self.slot(id).is_some_and(|s| s.lock().is_some())
    }

    /// Number of futures ever created.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no futures were created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::Val;

    fn id_of(v: Value) -> u64 {
        match v.decode() {
            Val::Future(id) => id,
            other => panic!("not a future: {other:?}"),
        }
    }

    #[test]
    fn resolve_then_touch() {
        let t = FutureTable::new();
        let f = t.create();
        let id = id_of(f);
        assert!(!t.is_resolved(id));
        t.resolve(id, Value::int(42));
        assert_eq!(t.try_get(id).unwrap().unwrap(), Value::int(42));
        assert!(t.is_resolved(id));
    }

    #[test]
    fn failure_propagates() {
        let t = FutureTable::new();
        let f = t.create();
        let id = id_of(f);
        t.fail(id, LispError::User("boom".into()));
        assert!(matches!(t.try_get(id), Some(Err(LispError::User(m))) if m == "boom"));
    }

    #[test]
    fn unknown_future_errors() {
        let t = FutureTable::new();
        assert!(t.try_get(99).is_none());
        assert!(!t.resolve(99, Value::T));
        assert!(!t.fail(99, LispError::User("x".into())));
    }

    #[test]
    fn double_resolve_rejected_first_write_wins() {
        let t = FutureTable::new();
        let id = id_of(t.create());
        assert!(t.resolve(id, Value::int(1)));
        assert!(!t.resolve(id, Value::int(2)), "second resolve must be rejected");
        assert!(!t.fail(id, LispError::User("late".into())), "fail after resolve rejected");
        assert_eq!(t.try_get(id).unwrap().unwrap(), Value::int(1));
    }

    #[test]
    fn resolve_after_fail_rejected() {
        let t = FutureTable::new();
        let id = id_of(t.create());
        assert!(t.fail(id, LispError::User("boom".into())));
        assert!(!t.resolve(id, Value::int(7)), "resolve after fail must be rejected");
        assert!(matches!(t.try_get(id), Some(Err(LispError::User(m))) if m == "boom"));
    }

    #[test]
    fn pending_ids_tracks_unresolved() {
        let t = FutureTable::new();
        let a = id_of(t.create());
        let b = id_of(t.create());
        let c = id_of(t.create());
        assert_eq!(t.pending_ids(), vec![a, b, c]);
        t.resolve(b, Value::T);
        assert_eq!(t.pending_ids(), vec![a, c]);
        t.fail(a, LispError::User("x".into()));
        t.resolve(c, Value::NIL);
        assert!(t.pending_ids().is_empty());
    }

    #[test]
    fn many_futures_are_independent() {
        let t = FutureTable::new();
        let handles: Vec<u64> = (0..10).map(|_| id_of(t.create())).collect();
        for (i, &id) in handles.iter().enumerate() {
            t.resolve(id, Value::int(i as i64));
        }
        for (i, &id) in handles.iter().enumerate() {
            assert_eq!(t.try_get(id).unwrap().unwrap(), Value::int(i as i64));
        }
        assert_eq!(t.len(), 10);
    }
}
