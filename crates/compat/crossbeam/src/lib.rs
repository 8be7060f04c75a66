//! Minimal `crossbeam` shim: only `queue::SegQueue`, backed by a mutexed
//! `VecDeque`. The simulator's doorbell rings are low-rate, so the lock is
//! never contended enough to matter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded MPMC FIFO queue with the `crossbeam` API.
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        /// Create an empty queue.
        pub const fn new() -> Self {
            SegQueue {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        /// Push an element to the back.
        pub fn push(&self, value: T) {
            self.lock().push_back(value);
        }

        /// Pop the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.lock().pop_front()
        }

        /// Number of queued elements.
        pub fn len(&self) -> usize {
            self.lock().len()
        }

        /// True when the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.lock().is_empty()
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let q = SegQueue::new();
            q.push(1);
            q.push(2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
    }
}
