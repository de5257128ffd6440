//! Evaluation errors.

use std::fmt;

/// Everything that can go wrong while lowering or evaluating a
/// program.
#[derive(Debug, Clone, PartialEq)]
pub enum LispError {
    /// A special form was used with the wrong shape.
    Syntax(String),
    /// Reference to a variable with no binding.
    Unbound(String),
    /// Call to a function that is not defined.
    UndefinedFunction(String),
    /// A function was called with the wrong number of arguments.
    Arity { name: String, expected: usize, got: usize },
    /// An operation received a value of the wrong type.
    Type { expected: &'static str, got: String, op: &'static str },
    /// Integer overflow past the 60-bit payload.
    Overflow(&'static str),
    /// Division by zero.
    DivideByZero,
    /// The evaluator exceeded its recursion limit.
    RecursionLimit(usize),
    /// The evaluator ran out of its thread's native stack budget (in
    /// bytes; `set_thread_stack_budget`) before reaching that limit.
    StackExhausted(usize),
    /// `(error "message" ...)` was evaluated.
    User(String),
    /// An index was outside a vector or list.
    IndexOutOfRange { index: i64, len: usize },
}

impl fmt::Display for LispError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LispError::Syntax(m) => write!(f, "syntax error: {m}"),
            LispError::Unbound(n) => write!(f, "unbound variable: {n}"),
            LispError::UndefinedFunction(n) => write!(f, "undefined function: {n}"),
            LispError::Arity { name, expected, got } => {
                write!(f, "{name}: expected {expected} argument(s), got {got}")
            }
            LispError::Type { expected, got, op } => {
                write!(f, "{op}: expected {expected}, got {got}")
            }
            LispError::Overflow(op) => write!(f, "{op}: integer overflow"),
            LispError::DivideByZero => write!(f, "division by zero"),
            LispError::RecursionLimit(n) => write!(f, "recursion limit ({n}) exceeded"),
            LispError::StackExhausted(budget) => {
                write!(f, "native stack budget ({budget} bytes) exhausted by nested calls")
            }
            LispError::User(m) => write!(f, "error: {m}"),
            LispError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
        }
    }
}

impl std::error::Error for LispError {}

/// Shorthand result type used throughout the interpreter.
pub type Result<T> = std::result::Result<T, LispError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(LispError::Unbound("x".into()).to_string(), "unbound variable: x");
        assert_eq!(
            LispError::Arity { name: "car".into(), expected: 1, got: 2 }.to_string(),
            "car: expected 1 argument(s), got 2"
        );
        assert!(LispError::Type { expected: "cons", got: "5".into(), op: "car" }
            .to_string()
            .contains("expected cons"));
    }
}
