//! Multilisp-style futures (paper §3.1).
//!
//! "If the spawning process is not strict in its use of the result …
//! then a Multilisp *future* provides process creation and
//! synchronization features that permit concurrent execution." A
//! future is a placeholder value; `touch` blocks until the producing
//! task resolves it.

use curare_lisp::sync::{Condvar, Mutex, RwLock};

use curare_lisp::{LispError, Value};

enum FutureState {
    Pending,
    Done(Value),
    Failed(LispError),
}

struct FutureSlot {
    state: Mutex<FutureState>,
    cv: Condvar,
}

/// The table of live futures; `Value::future(id)` indexes into it.
#[derive(Default)]
pub struct FutureTable {
    slots: RwLock<Vec<std::sync::Arc<FutureSlot>>>,
}

impl FutureTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a pending future; returns its value handle.
    pub fn create(&self) -> Value {
        let mut slots = self.slots.write();
        let id = slots.len() as u64;
        slots.push(std::sync::Arc::new(FutureSlot {
            state: Mutex::new(FutureState::Pending),
            cv: Condvar::new(),
        }));
        Value::future(id)
    }

    fn slot(&self, id: u64) -> Option<std::sync::Arc<FutureSlot>> {
        self.slots.read().get(id as usize).cloned()
    }

    /// Resolve future `id` with a value. First write wins: returns
    /// false (and changes nothing) when the future is already resolved
    /// or failed, so no second writer can overwrite the result a
    /// waiter may already have observed.
    pub fn resolve(&self, id: u64, v: Value) -> bool {
        crate::chaos::on_future_resolve();
        if let Some(slot) = self.slot(id) {
            let mut st = slot.state.lock();
            if !matches!(&*st, FutureState::Pending) {
                return false;
            }
            *st = FutureState::Done(v);
            drop(st);
            slot.cv.notify_all();
            curare_obs::record(curare_obs::EventKind::FutureResolve, id);
            return true;
        }
        false
    }

    /// Fail future `id` with an error. First write wins, as in
    /// [`FutureTable::resolve`].
    pub fn fail(&self, id: u64, e: LispError) -> bool {
        crate::chaos::on_future_resolve();
        if let Some(slot) = self.slot(id) {
            let mut st = slot.state.lock();
            if !matches!(&*st, FutureState::Pending) {
                return false;
            }
            *st = FutureState::Failed(e);
            drop(st);
            slot.cv.notify_all();
            curare_obs::record(curare_obs::EventKind::FutureResolve, id);
            return true;
        }
        false
    }

    /// Ids of futures still pending — for stall dumps and the abort
    /// path (which must fail them so waiters unblock rather than hang).
    pub fn pending_ids(&self) -> Vec<u64> {
        let slots = self.slots.read();
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(&*s.state.lock(), FutureState::Pending))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Block until future `id` resolves; returns its value.
    pub fn touch(&self, id: u64) -> Result<Value, LispError> {
        let Some(slot) = self.slot(id) else {
            return Err(LispError::User(format!("unknown future {id}")));
        };
        let mut st = slot.state.lock();
        loop {
            match &*st {
                FutureState::Done(v) => return Ok(*v),
                FutureState::Failed(e) => return Err(e.clone()),
                FutureState::Pending => slot.cv.wait(&mut st),
            }
        }
    }

    /// Non-blocking read: `Some(result)` if resolved.
    pub fn try_get(&self, id: u64) -> Option<Result<Value, LispError>> {
        let slot = self.slot(id)?;
        let st = slot.state.lock();
        match &*st {
            FutureState::Done(v) => Some(Ok(*v)),
            FutureState::Failed(e) => Some(Err(e.clone())),
            FutureState::Pending => None,
        }
    }

    /// Non-blocking probe (for tests).
    pub fn is_resolved(&self, id: u64) -> bool {
        self.slot(id).map(|s| !matches!(&*s.state.lock(), FutureState::Pending)).unwrap_or(false)
    }

    /// Number of futures ever created.
    pub fn len(&self) -> usize {
        self.slots.read().len()
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
    use std::sync::Arc;

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
        assert_eq!(t.touch(id).unwrap(), Value::int(42));
        assert!(t.is_resolved(id));
    }

    #[test]
    fn touch_blocks_until_resolution() {
        let t = Arc::new(FutureTable::new());
        let f = t.create();
        let id = id_of(f);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.touch(id).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.resolve(id, Value::T);
        assert_eq!(h.join().unwrap(), Value::T);
    }

    #[test]
    fn failure_propagates() {
        let t = FutureTable::new();
        let f = t.create();
        let id = id_of(f);
        t.fail(id, LispError::User("boom".into()));
        assert!(matches!(t.touch(id), Err(LispError::User(m)) if m == "boom"));
    }

    #[test]
    fn unknown_future_errors() {
        let t = FutureTable::new();
        assert!(t.touch(99).is_err());
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
        assert_eq!(t.touch(id).unwrap(), Value::int(1));
    }

    #[test]
    fn resolve_after_fail_rejected() {
        let t = FutureTable::new();
        let id = id_of(t.create());
        assert!(t.fail(id, LispError::User("boom".into())));
        assert!(!t.resolve(id, Value::int(7)), "resolve after fail must be rejected");
        assert!(matches!(t.touch(id), Err(LispError::User(m)) if m == "boom"));
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
            assert_eq!(t.touch(id).unwrap(), Value::int(i as i64));
        }
        assert_eq!(t.len(), 10);
    }
}
