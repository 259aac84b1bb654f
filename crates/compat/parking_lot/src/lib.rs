//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crate registry, so this tiny
//! vendored shim provides the subset of `parking_lot` the workspace actually
//! uses — an [`RwLock`] whose locking methods return guards directly (no
//! poisoning `Result`) — implemented on top of its [`std::sync`]
//! counterpart. Poisoned locks are recovered transparently, matching
//! `parking_lot`'s "no poisoning" semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A reader-writer lock with `parking_lot`-style ergonomics: `read()` /
/// `write()` return guards directly and never expose poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|poisoned| poisoned.into_inner()),
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|poisoned| poisoned.into_inner()),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`RwLock::read`]; releases the shared lock on drop.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard returned by [`RwLock::write`]; releases the exclusive lock on
/// drop.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_readers_share_and_writers_exclude() {
        let lock = RwLock::new(10usize);
        {
            let a = lock.read();
            let b = lock.read();
            assert_eq!((*a, *b), (10, 10));
        }
        *lock.write() += 32;
        assert_eq!(lock.into_inner(), 42);
    }

    #[test]
    fn rwlock_contended_writes_are_not_lost() {
        let counter = Arc::new(RwLock::new(0usize));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..50 {
                        *counter.write() += 1;
                    }
                });
            }
        });
        assert_eq!(*counter.read(), 200);
    }
}
