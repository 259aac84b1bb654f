//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no access to a crate registry, so this vendored
//! shim provides the subset of `crossbeam` the workspace uses: [`thread`],
//! crossbeam-style scoped threads (`thread::scope` returning a `Result`
//! instead of propagating panics), layered over `std::thread::scope`. The
//! parallel LTS generation engine, the batch analyses and the sharded
//! monitor fan their work out over these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod thread {
    //! Crossbeam-compatible scoped threads.
    //!
    //! [`scope`] mirrors `crossbeam::thread::scope`: spawned threads may
    //! borrow from the enclosing stack frame, every thread is joined before
    //! `scope` returns, and a panic in any spawned thread surfaces as an
    //! `Err` from `scope` rather than unwinding through the caller.

    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The result type of [`scope`]: `Err` carries the payload of a panicking
    /// spawned thread.
    pub type Result<T> = std::thread::Result<T>;

    /// A scope handle that can spawn borrowing threads.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// A handle to a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result (`Err` if it
        /// panicked).
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives the
        /// scope again so it can spawn further threads.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle { inner: inner.spawn(move || f(&Scope { inner })) }
        }
    }

    /// Creates a scope for spawning borrowing threads; all spawned threads
    /// are joined before this returns.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the panic payload if the closure or any
    /// not-explicitly-joined spawned thread panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| std::thread::scope(|s| f(&Scope { inner: s }))))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn scoped_threads_borrow_and_join() {
            let data = [1usize, 2, 3, 4];
            let total = AtomicUsize::new(0);
            let result = scope(|s| {
                let handles: Vec<_> =
                    data.chunks(2).map(|chunk| s.spawn(|_| chunk.iter().sum::<usize>())).collect();
                for handle in handles {
                    total.fetch_add(handle.join().unwrap(), Ordering::SeqCst);
                }
            });
            assert!(result.is_ok());
            assert_eq!(total.load(Ordering::SeqCst), 10);
        }

        #[test]
        fn nested_spawns_via_the_rehanded_scope() {
            let result = scope(|s| {
                s.spawn(|inner| inner.spawn(|_| 21usize).join().unwrap() * 2).join().unwrap()
            });
            assert_eq!(result.unwrap(), 42);
        }

        #[test]
        fn panics_surface_as_err_not_unwind() {
            let result = scope(|s| {
                s.spawn::<_, ()>(|_| panic!("worker exploded"));
            });
            assert!(result.is_err());
        }
    }
}
