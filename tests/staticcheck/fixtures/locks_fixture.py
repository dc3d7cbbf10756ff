"""Seeded lock-discipline violations (and correct forms that must stay quiet).

Line numbers matter: tests/staticcheck/test_rules.py asserts findings by
symbol, rule, and these exact constructs.
"""

import threading


class Counter:
    """Seeded unguarded reads and writes, plus guarded accesses."""

    def __init__(self):
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._count = 0  # construction: never flagged
        self._items = []

    def add(self, n):
        with self._lock:
            self._count += n  # guarded write: establishes ownership
            self._items.append(n)

    def total(self):
        with self._work:  # Condition aliases the lock: holding it counts
            return self._count

    def racy_peek(self):
        return self._count  # BAD: unguarded-attr read

    def racy_bump(self):
        self._count += 1  # BAD: unguarded-attr write

    def manual(self):
        # Quiet: manual acquire() — static with-analysis cannot follow it,
        # the whole method is exempt.
        if self._lock.acquire(timeout=1.0):
            try:
                return self._count
            finally:
                self._lock.release()
        return None


class Unlocked:
    """No guards at all: nothing here may ever be flagged."""

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1
