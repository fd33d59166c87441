"""The command line: `python -m epmt`, and the installed `epmt` script."""

import os

# No epmt path calls a BLAS routine, yet numpy's OpenBLAS, and scipy's own,
# each start a pool of worker threads as they load, which costs the command
# about a quarter of its start-up. This runs before numpy loads (`import
# epmt` loads no layer), so the command loads OpenBLAS with one thread; a
# value the user set still wins. Importing epmt as a library sets nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import entry  # noqa: E402  (numpy loads later, inside a subcommand)

if __name__ == "__main__":
    entry()
