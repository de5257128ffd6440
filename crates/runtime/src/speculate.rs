//! Speculation's commit (`SpecMode`): a speculative `run` arms the
//! journal, executes as any run does, and resolves at quiescence —
//! validates the interleaving against the sequential ranks, aborts and
//! replays conflicting invocations, and commits; or rolls everything
//! back and reruns the roots sequentially when speculation cannot
//! converge. The journal is process-wide: while one speculative run is
//! in flight a second one is an error.

use std::sync::Arc;

use curare_lisp::{speclog, FuncId, LispError, SequentialHooks, Value};

use crate::lifecycle::CriRuntime;

/// Abort/replay rounds before a speculative run gives up and falls to
/// the sequential rerun.
const SPEC_RETRY_LIMIT: u32 = 8;

impl CriRuntime {
    /// A `SpecMode` run of `(fid args...)`, to the committed value.
    /// Replays run under the journal's hooks, on this thread; an
    /// escalated rerun runs under `SequentialHooks` — nothing runs
    /// beside it, so it takes no pool lock — and the pool's hooks are
    /// back on every exit.
    pub(crate) fn run_speculative(&self, fid: FuncId, args: &[Value]) -> Result<Value, LispError> {
        speclog::arm()?;
        let ran = self.shared.run(&self.interp, fid, args.to_vec());
        let t0 = curare_obs::now_ns();
        let res = speclog::resolve_run(&self.interp, SPEC_RETRY_LIMIT);
        {
            // The commit's record: only this thread writes it.
            let mut spec = self.spec.lock();
            spec.spec_resolve_ns += curare_obs::now_ns().saturating_sub(t0);
            spec.spec_commits += res.committed;
            spec.spec_aborts += res.aborts;
            spec.spec_replays += res.replays;
            spec.spec_clean += res.clean;
            spec.spec_escalated |= res.escalated;
        }
        // The journal is disarmed now, so committed lines (already in
        // sequential order) append to the ordinary output log.
        for line in res.output {
            self.interp.emit(line);
        }
        if res.escalated {
            // A genuine sequential error surfaces here, exactly as the
            // non-speculative run would have reported it.
            let rerun = self.interp.with_hooks(Arc::new(SequentialHooks), || {
                res.roots
                    .into_iter()
                    .try_fold(Value::NIL, |_, (fid, args)| self.interp.call_fid_owned(fid, args))
            })?;
            return ran.map(|_| rerun);
        }
        ran.map(|v| res.root_value.unwrap_or(v))
    }
}
