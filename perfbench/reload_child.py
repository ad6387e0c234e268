"""Time save_index + load_index in a fresh process.

    python3 perfbench/reload_child.py <index file> <repeats>

The harness starts this script for each reload round, with gridneighbors on
PYTHONPATH. It loads the index once untimed, then saves and loads it
<repeats> times and prints one time in seconds per line.
"""

import sys
import time
from pathlib import Path

from gridneighbors import load_index, save_index


def main() -> None:
    path, repeats = Path(sys.argv[1]), int(sys.argv[2])
    index = load_index(path)
    copy = path.with_name(path.stem + "-copy.ghn")
    loaded = None
    for _ in range(repeats):
        loaded = None  # the previous copy is freed here, not in the timed region
        t0 = time.perf_counter()
        save_index(index, copy)
        loaded = load_index(copy)
        print(time.perf_counter() - t0)
        # Each save writes a new file: overwriting one would make ext4 flush
        # the old data first (its replace-via-truncate rule), which times the disk.
        copy.unlink()
    del loaded


if __name__ == "__main__":
    main()
