"""Write BENCHMARK.json at the root of the checkout from run.py's tables.

    python3 perfbench/write_benchmark_json.py
"""
import json

import run

if __name__ == "__main__":
    path = run.ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(run.benchmark_json(), indent=2) + "\n")
    print(f"wrote {path.name}")
