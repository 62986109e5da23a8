"""Time one set-up in a fresh interpreter: import panoloc, then generate.

    python3 perfbench/setup_probe.py <generate arguments...>

Run from the repository root; prints the elapsed seconds.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import panoloc.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = panoloc.cli.main(["generate", *sys.argv[1:]])
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(code)
    print(repr(elapsed))
