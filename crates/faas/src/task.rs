//! Task types: what flows between the service, endpoints, and workers.

use serde_json::Value;
use std::sync::Arc;
use xtract_types::{ContainerId, EndpointId, FunctionId, TaskId, XtractError};

/// A function body: a real closure executed inside a (logical) container
/// on a worker thread. Input and output are JSON values — the payload is
/// a serialized family batch in practice (Listing 1's `event`), but the
/// fabric never looks inside.
pub type FunctionBody = Arc<dyn Fn(Value) -> Result<Value, XtractError> + Send + Sync>;

/// One task submission: run `function` at `endpoint` on `payload`.
#[derive(Clone)]
pub struct TaskSpec {
    /// Which registered function to run.
    pub function: FunctionId,
    /// Which endpoint to run it on.
    pub endpoint: EndpointId,
    /// The serialized input (opaque to the fabric).
    pub payload: Value,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("function", &self.function)
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

/// A finished task's output.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutput {
    /// The function's return value. Shared, not copied: every poll of a
    /// finished task hands out another handle to the worker's one
    /// allocation, and the owner that has made the service
    /// [`forget`](crate::FaasService::forget) the task holds the last one.
    pub value: Arc<Value>,
    /// Which container the task ran in (for warm/cold accounting tests).
    pub container: ContainerId,
    /// Whether the container was warm when the task arrived.
    pub warm_start: bool,
}

/// Task lifecycle, as reported by batch polling.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskStatus {
    /// Queued at the service or endpoint.
    Pending,
    /// Executing on a worker.
    Running,
    /// Finished successfully.
    Done(TaskOutput),
    /// The function raised.
    Failed(XtractError),
    /// The endpoint's allocation expired with the task in flight (§5.8.1);
    /// the owner should resubmit.
    Lost,
    /// The owner cancelled the task (a hedge race was decided the other
    /// way). Terminal, and — unlike [`TaskStatus::Lost`] — must **not**
    /// be resubmitted: the family already has its result.
    Cancelled,
    /// The service has never seen this task id. Terminal: waiting on an
    /// unknown id can never make progress, so pollers must not spin on it
    /// (the old behaviour reported `Pending` forever).
    Unknown,
}

impl TaskStatus {
    /// True for terminal states.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TaskStatus::Done(_)
                | TaskStatus::Failed(_)
                | TaskStatus::Lost
                | TaskStatus::Cancelled
                | TaskStatus::Unknown
        )
    }
}

/// A task id paired with its status, as returned by batch polls.
#[derive(Debug, Clone, PartialEq)]
pub struct PolledTask {
    /// The task.
    pub id: TaskId,
    /// Its status at poll time.
    pub status: TaskStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(!TaskStatus::Pending.is_terminal());
        assert!(!TaskStatus::Running.is_terminal());
        assert!(TaskStatus::Lost.is_terminal());
        assert!(TaskStatus::Cancelled.is_terminal());
        assert!(TaskStatus::Unknown.is_terminal());
        assert!(TaskStatus::Failed(XtractError::TaskLost {
            task: TaskId::new(0)
        })
        .is_terminal());
        assert!(TaskStatus::Done(TaskOutput {
            value: Arc::new(Value::Null),
            container: ContainerId::new(0),
            warm_start: false,
        })
        .is_terminal());
    }
}
