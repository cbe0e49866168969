"""Entry point of every process the benchmark starts.

Usage: python3 child.py <probe|job|session|micro> <spec as JSON>

Set-up ends when ``nambu3.cli`` is importable, as for the ``nambu3``
command; the monotonic clock is shared with the parent, which started its
timer just before spawning this process.  Everything else lives in
``worker.py``.
"""
import sys
import time

if __name__ == "__main__":
    import nambu3.cli  # noqa: F401

    imported_at = time.monotonic()
    import worker

    sys.exit(worker.main(sys.argv[1], sys.argv[2], imported_at))
