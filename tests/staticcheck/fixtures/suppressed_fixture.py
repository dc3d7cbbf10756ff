"""Suppression-handling fixture: every seeded violation carries an ignore."""

import threading


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self._a = self._b = self._c = self._d = 0

    def guarded(self):
        with self._lock:
            self._a += 1
            self._b += 1
            self._c += 1
            self._d += 1

    def annotated(self):
        a = self._a  # staticcheck: ignore[unguarded-attr] -- fixture: same-line suppression
        # staticcheck: ignore[unguarded-attr] -- fixture: previous-line suppression
        b = self._b
        c = self._c  # staticcheck: ignore[*] -- fixture: wildcard suppression
        d = self._d  # staticcheck: ignore[blocking-under-lock] -- wrong rule: must NOT suppress
        return a, b, c, d
