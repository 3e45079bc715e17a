//! Error types for the storage substrate.

use std::fmt;

/// Errors produced by storage-layer operations (devices, WAL, pages).
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O error from the operating system (file backend, WAL).
    Io(std::io::Error),
    /// A page id was requested that the backend does not know about
    /// (either never written or already dropped).
    PageNotFound(u64),
    /// On-disk data could not be decoded back into its in-memory form.
    Corruption(String),
    /// An operation was attempted that the component does not support in its
    /// current configuration (e.g. appending to a closed WAL).
    InvalidOperation(String),
    /// A call failed by an armed [`FaultVfs`](crate::vfs::FaultVfs); only
    /// produced by the crash-recovery tests, never in normal operation.
    Injected,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::Corruption(msg) => write!(f, "corruption: {msg}"),
            StorageError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            StorageError::Injected => write!(f, "injected crash (fault file system)"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        if e.get_ref().is_some_and(|inner| inner.is::<crate::vfs::InjectedFault>()) {
            return StorageError::Injected;
        }
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::PageNotFound(42);
        assert!(e.to_string().contains("42"));
        let e = StorageError::Corruption("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = StorageError::InvalidOperation("closed".into());
        assert!(e.to_string().contains("closed"));
    }

    #[test]
    fn io_error_converts_and_exposes_source() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
