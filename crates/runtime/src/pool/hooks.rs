//! The hooks a pooled interpreter runs under: where a spawn, a
//! `touch` and a location lock of an executing body enter the protocol.
//! A spawn is buffered in its producer's batch frame or published at
//! once (`CriHooks::spawn`); a tail-position spawn may restart the
//! frame in place (`chain_in_place`); `touch` helps while it waits.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use curare_lisp::speclog;
use curare_lisp::{FuncId, Interp, LispError, Result, RuntimeHooks, Val, Value, Vm};
use curare_obs::EventKind;

use super::{begin_invocation, end_invocation, Shared, Tally, BATCH};
use crate::locktable::Location;
use crate::queue::Task;
use crate::watchdog::{self, BeatGuard, PHASE_EXECUTING, PHASE_LOCK_WAIT, PHASE_TOUCH_WAIT};

/// The hooks a pooled interpreter runs under.
pub struct CriHooks {
    pub(crate) shared: Arc<Shared>,
}

impl CriHooks {
    /// Append `task` to the executing invocation's batch frame, or
    /// hand it back for immediate submission when no frame of this
    /// pool is active (root-level calls).
    fn try_batch(&self, task: Task) -> Option<Task> {
        let key = self.shared.key();
        BATCH.with(|b| {
            let mut frames = b.borrow_mut();
            match frames.last_mut() {
                Some(f) if f.key == key => {
                    f.tasks.push(task);
                    None
                }
                _ => Some(task),
            }
        })
    }

    /// Publish the executing invocation's buffered successors now.
    /// Called before any potentially blocking wait so no other server
    /// (or future toucher) can depend on unpublished work, and before
    /// an early publication so that it lands behind them.
    fn flush_batch(&self) {
        let key = self.shared.key();
        BATCH.with(|b| {
            if let Some(f) = b.borrow_mut().last_mut().filter(|f| f.key == key) {
                self.shared.publish_batch(&mut f.tasks, false, &mut f.batched);
            }
        });
    }

    /// Every spawn leaves its producer here. `now` is the one early
    /// publication: the task goes to the queues at once, behind
    /// whatever the invocation still buffers (per-site FIFO), instead
    /// of joining the batch that publishes — or chains — at invocation
    /// end. Hand-off asks for it because its producer's tail is long;
    /// an eager pool always does (speculation for the same overlap).
    #[inline]
    fn spawn(&self, task: Task, now: bool) {
        if now || self.shared.eager {
            self.flush_batch();
            self.shared.submit_now(task);
        } else if let Some(task) = self.try_batch(task) {
            self.shared.submit_now(task);
        }
    }

    fn enqueue_at(&self, site: usize, fid: FuncId, args: Vec<Value>, now: bool) -> Result<()> {
        if !self.shared.aborting.load(Ordering::Acquire) {
            curare_obs::record(EventKind::Enqueue, site as u64);
            self.spawn(self.shared.new_task(site, fid, args, None), now);
        }
        Ok(())
    }
}

impl RuntimeHooks for CriHooks {
    /// The chain decision, taken at a tail-position spawn: that spawn
    /// ends the batch `publish_batch` would judge at invocation end,
    /// so the same conditions decide — `chains_past` what is buffered,
    /// not aborting — for the tasks `may_restart` admits, and what is
    /// buffered is published as it would be there. Every link is still
    /// a task: counted, leaving the records a materialised chain leaves,
    /// in their order, and starting at the plan's task-start point.
    fn chain_in_place(&self, site: usize, fid: FuncId) -> bool {
        let shared = &self.shared;
        let key = shared.key();
        BATCH.with(|b| {
            let mut frames = b.borrow_mut();
            let Some(f) = frames.last_mut().filter(|f| f.key == key && f.may_restart) else {
                return false;
            };
            if shared.aborting.load(Ordering::Acquire) || !shared.chains_past(site, &f.tasks) {
                return false;
            }
            curare_obs::record(EventKind::Enqueue, site as u64);
            // No arguments: re-execution recipes are for a speculative
            // run's resolver, and an eager pool never restarts in place.
            let next = shared.new_task(site, fid, Vec::new(), None).inv;
            end_invocation(f.fid, f.inv, 0);
            shared.publish_batch(&mut f.tasks, false, &mut f.batched);
            curare_obs::record(EventKind::Chain, site as u64);
            begin_invocation(fid, next);
            (f.fid, f.inv, f.in_place) = (fid, next, f.in_place + 1);
            if shared.watch.is_some() {
                watchdog::beat_enter(PHASE_EXECUTING, fid as u64);
            }
            crate::chaos::on_task_start();
            true
        })
    }

    fn enqueue(&self, _: &Interp, site: usize, fid: FuncId, args: Vec<Value>) -> Result<()> {
        self.enqueue_at(site, fid, args, false)
    }

    fn handoff(&self, _: &Interp, site: usize, fid: FuncId, args: Vec<Value>) -> Result<()> {
        self.enqueue_at(site, fid, args, true)
    }

    fn future(&self, _: &Interp, fid: FuncId, args: Vec<Value>) -> Result<Value> {
        let fut = self.shared.futures.create();
        let Val::Future(id) = fut.decode() else { unreachable!("create returns a future") };
        if self.shared.aborting.load(Ordering::Acquire) {
            self.shared.futures.fail(id, LispError::User("aborted by earlier error".into()));
            return Ok(fut);
        }
        curare_obs::record(EventKind::Enqueue, 0);
        self.spawn(self.shared.new_task(0, fid, args, Some(id)), false);
        Ok(fut)
    }

    fn touch(&self, interp: &Interp, v: Value) -> Result<Value> {
        match v.decode() {
            // A server blocked in touch would strand queued work (and
            // deadlock pools shallower than the recursion), so touch
            // *helps*: it executes queued invocations while waiting —
            // the Multilisp discipline.
            Val::Future(id) => {
                self.flush_batch();
                let blocked = !self.shared.futures.is_resolved(id);
                if blocked {
                    curare_obs::record(EventKind::FutureBlock, id);
                }
                // Heartbeat: the wait-entry timestamp is deliberately
                // NOT refreshed by the idle sleep below — a touch that
                // waits without making progress must age into a stall.
                // Helped tasks refresh it on completion (their guard's
                // exit), because helping *is* progress.
                let _beat =
                    self.shared.watch.is_some().then(|| BeatGuard::enter(PHASE_TOUCH_WAIT, id));
                let mut idle_us: u64 = 1;
                // A helper's own context and tally (the server's are
                // up the stack, on loan to the op that called this).
                let mut help: Option<(Vm<'_>, Tally)> = None;
                loop {
                    if let Some(result) = self.shared.futures.try_get(id) {
                        speclog::record_touch(id);
                        // A wake ends the block's wait in the trace; the
                        // profiler also reads it as a touch edge.
                        if blocked || curare_obs::profiling_enabled() {
                            curare_obs::record(
                                EventKind::TouchWake,
                                curare_obs::pack_pair(curare_obs::current_invocation(), id),
                            );
                        }
                        return result;
                    }
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        return Err(LispError::User("pool shut down while touching".into()));
                    }
                    match self.shared.sched.pop() {
                        Some(t) => {
                            idle_us = 1;
                            let (vm, tally) =
                                help.get_or_insert_with(|| (Vm::new(interp), Tally::default()));
                            self.shared.run_chain(vm, tally, t, Some(id));
                        }
                        None => {
                            // The resolving task runs elsewhere; back
                            // off exponentially (1 µs doubling to a
                            // 256 µs cap) rather than spin-poll at a
                            // fixed rate.
                            std::thread::sleep(std::time::Duration::from_micros(idle_us));
                            idle_us = (idle_us * 2).min(256);
                        }
                    }
                }
            }
            _ => Ok(v),
        }
    }

    fn lock(&self, _interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()> {
        // Publish buffered work first: a blocking lock acquisition
        // must never hold successors hostage in a local buffer.
        self.flush_batch();
        let _beat =
            self.shared.watch.is_some().then(|| BeatGuard::enter(PHASE_LOCK_WAIT, cell.bits()));
        self.shared.locks.lock(Location::new(cell, field), exclusive);
        Ok(())
    }

    fn unlock(&self, _interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()> {
        if self.shared.locks.unlock(Location::new(cell, field), exclusive) {
            Ok(())
        } else {
            Err(LispError::User("cri-unlock without a matching cri-lock".into()))
        }
    }
}
