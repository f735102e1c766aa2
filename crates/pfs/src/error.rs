/// File-system level errors.
///
/// Typed for the strategy layers: a rejected server request or an
/// exhausted retry budget surfaces as a variant the caller can match and
/// retry on, never a `panic!` inside the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Byte-range locking requested on a file system without lock support
    /// (the ENFS/Cplant case: "the most notable is the absence of file
    /// locking on Cplant", paper §4).
    LocksUnsupported { file_system: &'static str },
    /// A read touched bytes beyond the end of file.
    ReadPastEof {
        offset: u64,
        len: u64,
        file_len: u64,
    },
    /// Operation on a closed handle.
    Closed,
    /// An I/O server rejected a request because it is down (crashed by a
    /// [`FaultPlan`](crate::FaultPlan) event and not yet restarted). The
    /// client-side retry loop backs off and re-issues; callers of the
    /// `try_*` I/O variants see this only once the retry budget is spent —
    /// as [`FsError::RetriesExhausted`], which wraps the last rejection.
    ServerUnavailable { server: usize },
    /// A request was rejected on every attempt of the client's fixed
    /// retry budget, each retry after an exponential vtime backoff, and
    /// the server still had not restarted (a
    /// [`RestartPolicy::Manual`](crate::RestartPolicy::Manual) crash).
    RetriesExhausted { server: usize, attempts: u32 },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::LocksUnsupported { file_system } => {
                write!(f, "{file_system} does not support byte-range file locking")
            }
            FsError::ReadPastEof {
                offset,
                len,
                file_len,
            } => write!(
                f,
                "read of {len} bytes at offset {offset} passes end of file ({file_len})"
            ),
            FsError::Closed => write!(f, "file handle is closed"),
            FsError::ServerUnavailable { server } => {
                write!(f, "I/O server {server} is down and rejected the request")
            }
            FsError::RetriesExhausted { server, attempts } => write!(
                f,
                "I/O server {server} still down after {attempts} rejected attempts"
            ),
        }
    }
}

impl std::error::Error for FsError {}
