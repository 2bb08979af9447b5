"""Odd/even frequency-set family served over the freqalloc plugin protocol.

Answers each line-delimited JSON query {"side": "A", "t": 5, "k": 3} with
the first k frequencies of its side's residue class, {start + 2i : i < k}
with start 1 on side A and 2 on side B: the 2-competitive family with
additive constant 0.  It imports nothing from freqalloc, so its cost per
query is fixed and a timing of the round trip measures the adapter and the
protocol, not the family.
"""

import json
import sys

START = {"A": 1, "B": 2}


def main() -> None:
    out = sys.stdout
    for line in iter(sys.stdin.readline, ""):
        query = json.loads(line)
        start = START[query["side"]]
        out.write(json.dumps({"freqs": list(range(start, start + 2 * query["k"], 2))}))
        out.write("\n")
        out.flush()


if __name__ == "__main__":
    main()
