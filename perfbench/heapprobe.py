"""Heap a loaded index retains, measured with tracemalloc in a fresh interpreter.

    python3 perfbench/heapprobe.py SRC_DIR INDEX_FILE

Prints one JSON object: the bytes still allocated after load_index returns
and the same bytes split by the source file that allocated them. A fresh
process per index makes module-level caches count the same way every time.
"""

import gc
import json
import os
import sys
import tracemalloc


def main(src, path):
    sys.path.insert(0, src)
    from fmblock import storage

    package = os.path.join(os.path.realpath(src), "fmblock")
    gc.collect()
    tracemalloc.start()
    index = storage.load_index(path)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    by_module = {}
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        filename = os.path.realpath(stat.traceback[0].filename)
        module = "other"
        if os.path.dirname(filename) == package:
            module = os.path.splitext(os.path.basename(filename))[0]
        by_module[module] = by_module.get(module, 0) + stat.size
    tracemalloc.stop()
    print(json.dumps({"n": index.n, "retained": retained, "by_module": by_module}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
