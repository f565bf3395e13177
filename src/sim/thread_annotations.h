/**
 * @file
 * Thread-safety annotation macros for concurrent data structures.
 *
 * The simulator's determinism contract (byte-identical sweep output at
 * any --jobs level) rests on a small set of explicitly synchronized
 * structures — the result store, the trace cache, the sweep engine's
 * task deques, the serialized logging layer. Every mutable member of
 * such a structure must name the synchronization that protects it:
 *
 *     std::mutex mu_;
 *     StoreStats stats_ MEMENTO_GUARDED_BY(mu_);
 *
 * When building with clang and -DMEMENTO_THREAD_ANNOTATIONS (plus
 * -Wthread-safety), MEMENTO_GUARDED_BY expands to the real `guarded_by`
 * attribute so the compiler's thread-safety analysis checks lock
 * discipline; otherwise the annotations are documentation, and the
 * ThreadSanitizer CI job is the dynamic check.
 *
 * Classes that are deliberately *not* synchronized because exactly one
 * thread ever owns an instance (a Machine's StatRegistry, the per-run
 * allocators) are marked MEMENTO_SINGLE_THREADED at the class head;
 * that is a documentation contract audited by the parallel sweep's
 * fresh-Machine-per-run design, not by a lock.
 */

#ifndef MEMENTO_SIM_THREAD_ANNOTATIONS_H
#define MEMENTO_SIM_THREAD_ANNOTATIONS_H

#if defined(MEMENTO_THREAD_ANNOTATIONS) && defined(__clang__)
#define MEMENTO_THREAD_ATTR(x) __attribute__((x))
#else
#define MEMENTO_THREAD_ATTR(x)
#endif

/** Member is read/written only while holding @p m. */
#define MEMENTO_GUARDED_BY(m) MEMENTO_THREAD_ATTR(guarded_by(m))

/**
 * Member is written only during construction and immutable afterwards,
 * so concurrent readers need no lock.
 */
#define MEMENTO_READONLY_AFTER_INIT

/**
 * Class is owned and driven by exactly one thread at a time; it has no
 * internal synchronization by design. Concurrency is achieved by
 * giving each worker its own instance, never by sharing one.
 */
#define MEMENTO_SINGLE_THREADED

#endif // MEMENTO_SIM_THREAD_ANNOTATIONS_H
