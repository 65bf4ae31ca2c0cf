"""A fixed pure-Python job that measures how fast the host runs right now.

    python3 perfbench/yardstick.py

The benchmark starts it in a fresh process before and after each timed
command and scales the command's wall time by it (see ``bench.Yardstick``).
It does the kind of work the CLI does (interpreter start, imports, CSV
parsing, regular expressions, string case changes, dict and list building,
sorting and JSON) on inputs fixed here, and never touches ``ehr2icd``, so a
change to the program cannot change its time. Do not change it either: the
scaled times of two commits compare only if both used the same yardstick.
"""

import csv
import io
import json
import random
import re

LINES = 6000


def main() -> None:
    rng = random.Random(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(2, 9))) for _ in range(3000)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for n in range(LINES):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
        writer.writerow([n, rng.choice("MF"), rng.randint(1, 99), text.title()])
    token = re.compile(r"[a-z]+")
    counts: dict[str, int] = {}
    index: dict[str, list[tuple[int, int]]] = {}
    for row in csv.reader(io.StringIO(buf.getvalue())):
        for i, tok in enumerate(token.findall(row[3].lower())):
            counts[tok] = counts.get(tok, 0) + 1
            index.setdefault(tok, []).append((int(row[0]), i))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    hits = sum(len(index[word]) for word, _ in ranked[:200])
    print(len(json.dumps(ranked)), hits)


if __name__ == "__main__":
    main()
