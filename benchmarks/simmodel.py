"""Seeded workload generator and the simulated model that answers it.

The generator builds instances (the only thing the program under test
receives) together with a private script per instance: the plan text, the
SQL blocks the model will write, the result it will claim for each block,
and how it reads its final answer off a result.  It also records the answer
a correct loop must produce, so the benchmark can gate on correctness.

The simulated model is a pure function of the request content, the
``stop`` strings and ``max_tokens``:

* it finds its instance from the question or claim text (unique by
  construction, it carries a per-instance edition number);
* it finds its round by counting its own SQL statements that appear after
  the prompt's last ``## Answer`` header;
* it continues its script from the block after the last one already in the
  request, reading the final answer off the result text under the last
  result marker, so an answer is right only if the real execution result was
  spliced in;
* it cuts before the first ``stop`` string (``finish_reason=stop``) or at
  ``4 * max_tokens`` characters (``finish_reason=length``).

Neither side imports the package under test: the endpoint process must not
depend on it, and the expected answers must not be computed by the code they
check.
"""

from __future__ import annotations

import math
import random
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Simulated service time of one completion:
#   base_ms + prefill_ms_per_token * prompt_tokens + decode_ms_per_token * decoded_tokens
# Decode costs 25x prefill per token, the usual ratio for a batched serving
# stack where prefill is compute-parallel and decode is sequential.  With
# these values an infer instance costs about 40 ms of model time, so local
# work (well under 1 ms) is a small share, as it is against a real endpoint.
MODEL_CONSTANTS = {
    "base_ms": 2.0,
    "prefill_ms_per_token": 0.002,
    "decode_ms_per_token": 0.05,
}

# The run config the CLI uses when given no --config.
TABLE_TOKEN_BUDGET = 3000
MAX_INJECTION_ROUNDS = 4
MARKERS = ("Executed result:", "Expected Result:", "Expected result:")

LABELS_BINARY = ("true", "false")
LABELS_THREEWAY = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")

WORKLOAD_SIZES = {"infer_http": 200, "infer_http_faults": 200, "teacher_local": 100}


def est_tokens(text: str) -> int:
    """The char/4 token proxy (same rule as ``tabreason.tables.estimate_tokens``)."""
    return (len(text) + 3) // 4


def service_ms(prompt_tokens: int, decoded_tokens: int) -> float:
    c = MODEL_CONSTANTS
    return (
        c["base_ms"]
        + c["prefill_ms_per_token"] * prompt_tokens
        + c["decode_ms_per_token"] * decoded_tokens
    )


# ---------------------------------------------------------------------------
# vocabulary

_FIRST = (
    "Anna Bruno Carla Dmitri Elena Farid Greta Hiro Ines Jonas Kemal Lena Marco "
    "Nadia Oscar Petra Quentin Rosa Stefan Tomas Ulla Viktor Wanda Yusuf Zara "
    "Akira Bianca Cyril Dalia Emil"
).split()
_LAST = (
    "Berg Costa Duval Ekberg Fischer Garcia Horvat Ivanov Jensen Kowalski Lindqvist "
    "Moreau Novak Okafor Petrov Quist Rossi Sato Tanaka Ueda Varga Weber Yilmaz "
    "Zeller Abbott Bianchi Castro Dorsey Engel Falk"
).split()
_COUNTRIES = (
    "Kenya", "Norway", "Brazil", "Japan", "Italy", "Canada",
    "Poland", "Chile", "Egypt", "Spain", "Ghana", "Peru",
)
_CLUBS = (
    "Red Lions", "Blue Hawks", "North Stars", "Harbor City", "Iron Valley",
    "Lake Rovers", "Summit AC", "Old Town", "River Plate", "Sun Coast",
)
_EVENTS = (
    "Varna Open", "Lakeside Classic", "Coastal Relay", "Highland Games",
    "Autumn Cup", "Capital Meet", "Delta Trophy", "Granite Series",
)
_CITIES = ("Lisbon", "Oslo", "Osaka", "Quito", "Accra", "Turin", "Leeds", "Perth")
_HEADERS = ("Rank", "Name", "Nationality", "Points", "Year", "Club")
_FILLER = (
    "The table lists one row per athlete, so each row is one competitor.",
    "Only the columns named in the question matter for this step.",
    "Numbers in the Points column are plain integers, so comparisons are numeric.",
    "We keep the reasoning short and rely on the executed results.",
    "Each SQL statement reads the same table, which is called w.",
    "The rank column orders athletes by their finishing position.",
    "The nationality column uses full country names.",
    "Club names are written exactly as they appear in the table.",
)

Rows = List[Tuple[str, ...]]
Result = Tuple[Tuple[str, ...], Rows]  # header, body rows


def _q(name: str) -> str:
    return "`%s`" % name


# ---------------------------------------------------------------------------
# results as the model reads and writes them


def format_grid(result: Result) -> str:
    header, rows = result
    lines = ["| " + " | ".join(header) + " |"]
    if not rows:
        lines.append("(no rows)")
    lines.extend("| " + " | ".join(r) + " |" for r in rows)
    return "\n".join(lines)


def parse_grid(lines: Sequence[str]) -> Optional[Result]:
    parsed = []
    for line in lines:
        s = line.strip()
        if s.startswith("|"):
            parsed.append(tuple(c.strip() for c in s.strip("|").split("|")))
    if not parsed:
        return None
    return parsed[0], parsed[1:]


def _marker_line(line: str) -> bool:
    s = line.strip()
    if s.startswith("```"):
        s = s[3:].strip()
    return s.lower() in {m.lower() for m in MARKERS}


def result_under_last_marker(text: str) -> Optional[Result]:
    """Read the result table that follows the last result-marker line."""
    lines = text.split("\n")
    at = None
    for i, line in enumerate(lines):
        if _marker_line(line):
            at = i
    if at is None:
        return None
    i = at + 1
    while i < len(lines) and not lines[i].strip():
        i += 1
    body: List[str] = []
    if i < len(lines) and lines[i].strip().startswith("```"):
        i += 1
        while i < len(lines) and not lines[i].strip().startswith("```"):
            body.append(lines[i])
            i += 1
    else:
        while i < len(lines) and lines[i].strip():
            body.append(lines[i])
            i += 1
    return parse_grid(body)


def marker_cuts(text: str) -> List[int]:
    """Offsets just past each result-marker line's content (where the loop cuts)."""
    cuts, offset = [], 0
    for line in text.split("\n"):
        if _marker_line(line):
            cuts.append(offset + len(line))
        offset += len(line) + 1
    return cuts


def surviving_decoded_chars(calls: Sequence[Tuple[str, str]], final_generation: str) -> int:
    """Decoded characters of one instance that survive into its final generation.

    ``calls`` are the instance's (request content, decoded text) pairs in
    order; the first request is the prompt.  A call's text survives up to the
    latest cut point (the end of a result-marker line in it, or its end) whose
    prefix the next request, or for the last call the final generation,
    carries verbatim right after the previous request's answer part.  Text
    the loop splices in (execution results, kept claims, added markers) is
    therefore never counted as decoded, while a claimed result that the loop
    cut away is counted as discarded even when the same text is put back.
    """
    if not calls:
        return 0
    prompt = calls[0][0]
    survived = 0
    for i, (content, text) in enumerate(calls):
        partial = content[len(prompt):]
        following = calls[i + 1][0][len(prompt):] if i + 1 < len(calls) else final_generation
        if not following.startswith(partial):
            continue
        rest = following[len(partial):]
        for cut in sorted(marker_cuts(text) + [len(text)], reverse=True):
            if rest.startswith(text[:cut]):
                survived += cut
                break
    return survived


# ---------------------------------------------------------------------------
# scripts


@dataclass
class Block:
    sql: str
    text: str  # intro prose + the block as written, ending with the claimed result
    run: Optional[Callable[[Rows], Result]]  # None: the program rejects this SQL


@dataclass
class Script:
    instance_id: str
    task: str
    labels: Optional[Tuple[str, ...]]
    opening: str
    blocks: List[Block]
    closing: str  # reasoning before the final-answer line
    answer_kind: str  # "scalar" | "list" | "fact" | "nei" | "free"
    claimed_n: Optional[str] = None  # the number a verification claim states
    bold: bool = False

    def answer_value(self, result: Optional[Result]):
        """What the model concludes from the result it reads."""
        cells = [r[0] for r in result[1] if r and r[0]] if result else []
        if self.answer_kind == "nei":
            return self.labels[2]
        if self.answer_kind == "fact":
            hit = bool(cells) and cells[0] == self.claimed_n
            return self.labels[0] if hit else self.labels[1]
        if self.answer_kind == "list":
            return cells or ["none"]
        if self.answer_kind == "scalar":
            return cells[:1] or ["none"]
        return cells[0] if cells else "none"

    def answer_line(self, value) -> str:
        if self.task == "fact_verification":
            return "Therefore, the answer is %s." % value
        if self.task == "free_qa":
            return "The final answer is %s." % value
        joined = ", ".join(value)
        return "The final answer is %s." % ("**%s**" % joined if self.bold else joined)

    def expected_answer(self, value) -> dict:
        """The ``FinalAnswer.to_dict()`` the program must extract."""
        if self.task == "fact_verification":
            return {"kind": "label", "label": value}
        if self.task == "free_qa":
            return {"kind": "free", "text": value}
        return {"kind": "short", "answers": list(value)}

    def continuation(self, resolved: int) -> str:
        """Script text after block ``resolved`` (0: the whole generation)."""
        parts = [self.opening] if resolved == 0 else []
        parts.extend(b.text for b in self.blocks[resolved:])
        parts.append(self.closing)
        return "".join(parts)

    def round_of(self, partial: str) -> int:
        """How many of this script's blocks already appear in ``partial``."""
        pos = 0
        for n, block in enumerate(self.blocks):
            at = partial.find(block.sql, pos)
            if at < 0:
                return n
            pos = at + len(block.sql)
        return len(self.blocks)


@dataclass
class Workload:
    name: str
    seed: int
    instances: List[dict]
    scripts: Dict[str, Script]  # by query text
    expected: Dict[str, dict]  # by instance id: FinalAnswer dict, or None for a planned failure
    expected_correct: Dict[str, bool]
    faults: Dict[str, str] = field(default_factory=dict)  # instance id -> "429" | "503"

    @property
    def expected_accuracy(self) -> float:
        return sum(self.expected_correct.values()) / len(self.instances)


def _stratified(rng: random.Random, n: int, shares: Sequence[Tuple[object, float]]) -> List[object]:
    """Exactly ``round(share * n)`` of each value (largest remainder), shuffled."""
    raw = [(v, s * n) for v, s in shares]
    counts = [int(math.floor(x)) for _, x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i][1] - counts[i], reverse=True)
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    out = [v for (v, _), c in zip(raw, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def kept_rows(title: str, rows: Sequence[Sequence[str]], budget: int = TABLE_TOKEN_BUDGET) -> int:
    """Rows that survive the documented truncation rule: trailing rows are
    dropped until the serialized table (title line, header, rows, one line
    each) fits ``budget`` char/4 tokens."""
    total = len("Page Title: %s\n| %s |" % (title, " | ".join(_HEADERS)))
    kept = 0
    for row in rows:
        line = len(" | ".join(row)) + 4
        if (total + 1 + line + 3) // 4 > budget:
            break
        total += 1 + line
        kept += 1
    return kept


class _Gen:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.teacher = workload == "teacher_local"

    # -- tables ----------------------------------------------------------------

    def table(self, n_rows: int, wide: bool) -> Tuple[List[str], Rows]:
        rng = self.rng
        points = rng.sample(range(100, 100 + 40 * n_rows), n_rows)
        rows: Rows = []
        for i in range(n_rows):
            name = "%s %s" % (rng.choice(_FIRST), rng.choice(_LAST))
            club = rng.choice(_CLUBS)
            if wide:
                club += " (%s)" % " ".join(rng.choice(_FILLER) for _ in range(3))
            rows.append(
                (
                    str(i + 1),
                    name,
                    rng.choice(_COUNTRIES),
                    str(points[i]),
                    str(rng.randint(1990, 2023)),
                    club,
                )
            )
        return list(_HEADERS), rows

    # -- SQL the model writes ------------------------------------------------

    @staticmethod
    def q_count(where_sql: str, pred) -> Tuple[str, Callable[[Rows], Result]]:
        sql = "SELECT COUNT(*) FROM w WHERE %s" % where_sql
        return sql, lambda rows: (("COUNT(*)",), [(str(sum(1 for r in rows if pred(r))),)])

    @staticmethod
    def q_names(where_sql: str, pred) -> Tuple[str, Callable[[Rows], Result]]:
        sql = "SELECT %s FROM w WHERE %s" % (_q("Name"), where_sql)
        return sql, lambda rows: (("Name",), [(r[1],) for r in rows if pred(r)])

    @staticmethod
    def q_max(where_sql: str, pred) -> Tuple[str, Callable[[Rows], Result]]:
        sql = "SELECT MAX(%s) FROM w WHERE %s" % (_q("Points"), where_sql)

        def run(rows: Rows) -> Result:
            hits = [int(r[3]) for r in rows if pred(r)]
            return ("MAX(Points)",), [(str(max(hits)) if hits else "",)]

        return sql, run

    def exploratory(self, rows: Rows, kind: int) -> Tuple[str, Optional[Callable]]:
        if kind == 3:
            return "SELECT %s, COUNT(*) FROM w GROUP BY %s" % (_q("Nationality"), _q("Nationality")), None
        if kind == 4:
            return "SELECT %s FROM w ORDER BY %s DESC" % (_q("Name"), _q("Points")), None
        if kind == 0:
            k = self.rng.randint(2, 3)
            sql = "SELECT %s, %s FROM w WHERE %s <= %d" % (_q("Name"), _q("Points"), _q("Rank"), k)
            return sql, lambda rs: (("Name", "Points"), [(r[1], r[3]) for r in rs if int(r[0]) <= k])
        if kind == 1:
            return "SELECT COUNT(*) FROM w", lambda rs: (("COUNT(*)",), [(str(len(rs)),)])
        letter = self.rng.choice(rows)[1][0]
        sql = "SELECT COUNT(*) FROM w WHERE %s LIKE '%s%%'" % (_q("Name"), letter)
        return sql, lambda rs: (("COUNT(*)",), [(str(sum(1 for r in rs if r[1].startswith(letter))),)])

    def claim(self, result: Result, wrong: bool) -> Result:
        header, rows = result
        if not wrong:
            return result
        if not rows:
            return header, [("%d" % self.rng.randint(1, 9),) * len(header)]
        first = rows[0]
        cell = first[-1]
        if cell.isdigit():
            first = first[:-1] + (str(int(cell) + self.rng.randint(1, 3)),)
        elif cell:
            first = first[:-1] + ("%s %s" % (self.rng.choice(_FIRST), self.rng.choice(_LAST)),)
        else:
            first = first[:-1] + (str(self.rng.randint(100, 999)),)
        return header, [first] + list(rows[1:])

    def block_text(self, sql: str, claimed: Result, intro: str) -> str:
        rng = self.rng
        marker = rng.choice(MARKERS)
        grid = format_grid(claimed)
        if rng.random() < 0.25:
            grid = "```\n%s\n```" % grid
        form = rng.randrange(3)
        if form == 0:
            body = "```sql\n%s\n```\n%s\n%s" % (sql, marker, grid)
        elif form == 1:
            body = "```sql\n%s\n```%s\n%s" % (sql, marker, grid)
        else:
            body = "SQL:\n%s\n\n%s\n\n%s" % (sql, marker, grid)
        return "\n\n- %s\n%s" % (intro, body)

    def filler(self, sentences: int) -> str:
        return "\n".join("- " + self.rng.choice(_FILLER) for _ in range(sentences))

    # -- one instance ----------------------------------------------------------

    def instance(self, serial: int, spec: dict) -> Tuple[dict, Script, dict, bool]:
        rng = self.rng
        iid = "%s-%04d" % (self.workload, serial)
        event = "%s %d" % (rng.choice(_EVENTS), serial)
        headers, rows = self.table(spec["rows"], spec["wide"])
        kept = rows[: kept_rows(event, rows)]
        task, kind = spec["task"]
        labels = None
        if task == "fact":
            labels = LABELS_BINARY if kind == "binary" else LABELS_THREEWAY
        task_name = {"short": "short_qa", "free": "free_qa"}.get(task, "fact_verification")

        # the answer query and the question it answers
        target = rng.choice(rows[:8] if spec["early"] else rows)
        country, club = target[2], target[5]
        sentences: List[dict] = []
        claimed_n = None
        if task == "short" and kind == "count":
            sql, run = self.q_count("%s = '%s'" % (_q("Nationality"), country), lambda r: r[2] == country)
            query = "How many athletes from %s took part in the %s?" % (country, event)
            answer_kind = "scalar"
        elif task == "short" and kind == "list":
            year = target[4]
            where = "%s = '%s' AND %s = %s" % (_q("Nationality"), country, _q("Year"), year)
            sql, run = self.q_names(where, lambda r: r[2] == country and r[4] == year)
            query = "Which athletes from %s joined in %s for the %s?" % (country, year, event)
            answer_kind = "list"
        elif task == "short":
            sql, run = self.q_max("%s = '%s'" % (_q("Club"), club), lambda r: r[5] == club)
            query = "What is the highest points total of a %s athlete in the %s?" % (club, event)
            answer_kind = "scalar"
        elif task == "free":
            pts = target[3]
            sql, run = self.q_names("%s = %s" % (_q("Points"), pts), lambda r: r[3] == pts)
            query = "Who scored exactly %s points in the %s?" % (pts, event)
            answer_kind = "free"
        else:
            sql, run = self.q_count("%s = '%s'" % (_q("Nationality"), country), lambda r: r[2] == country)
            true_n = run(rows)[1][0][0]
            claimed_n = true_n if spec["supports"] else str(int(true_n) + rng.randint(1, 3))
            query = "There are %s athletes from %s in the %s." % (claimed_n, country, event)
            answer_kind = "fact"
            if kind == "nei":
                query = "The %s was held in %s and %s athletes from %s took part." % (
                    event, rng.choice(_CITIES), claimed_n, country)
                answer_kind = "nei"
            if spec["sentences"]:
                sentences.append({"title": event, "text": "The %s drew athletes from %d clubs." % (event, len(_CLUBS))})

        # blocks: exploratory ones first, then the answer query; a fifth block
        # re-checks the answer (the loop's cap leaves it unexecuted)
        n_blocks = spec["blocks"]
        blocks: List[Block] = []
        wrong = list(spec["wrong"])
        for b in range(n_blocks):
            if b == n_blocks - 1 or (n_blocks == 5 and b == 3):
                b_sql, b_run = (sql, run) if b < 4 else (sql + ";", run)
                intro = "Now we query exactly what the question asks." if b < 4 else "Let me double-check that figure."
            else:
                b_sql, b_run = self.exploratory(rows, spec["explore"][b])
                intro = "First we look at the table to ground the plan."
            truth = b_run(rows) if b_run else (("Nationality", "COUNT(*)"), [(country, "1")])
            claimed = self.claim(truth, wrong[b] and b < 4)
            blocks.append(Block(sql=b_sql, text=self.block_text(b_sql, claimed, intro), run=b_run))

        opening = "Let's answer in three steps.\n1. Plan for answering the question\n%s\n\n2. Write SQL and execute SQL" % (
            self.filler(spec["plan"]))
        closing = "\n\n3. Step-by-Step Reasoning:\n%s\n- Based on the result above we can conclude.\n" % (
            self.filler(spec["reason"]))
        script = Script(
            instance_id=iid,
            task=task_name,
            labels=labels,
            opening=opening,
            blocks=blocks,
            closing=closing,
            answer_kind=answer_kind,
            claimed_n=claimed_n,
            bold=rng.random() < 0.5,
        )

        # what a correct loop yields: the last marker it leaves holds the real
        # result of the last executed block, or the claim of a block past the cap
        if n_blocks <= MAX_INJECTION_ROUNDS:
            expected_value = script.answer_value(blocks[-1].run(kept))
        else:
            expected_value = script.answer_value(result_under_last_marker(blocks[-1].text))
        gold_value = script.answer_value(run(rows))

        instance = {
            "id": iid,
            "task": task_name,
            "query": query,
            "table": {"page_title": event, "headers": headers, "rows": [list(r) for r in rows]},
            "tags": {"blocks": n_blocks, "kind": kind},
        }
        if sentences:
            instance["sentences"] = sentences
        if task_name == "fact_verification":
            instance["gold"] = {"label": gold_value}
            instance["labels"] = list(labels)
        elif task_name == "free_qa":
            instance["gold"] = {"answers": [gold_value]}
        else:
            instance["gold"] = {"answers": list(gold_value)}
        expected = script.expected_answer(expected_value)
        return instance, script, expected, expected_value == gold_value


TASK_SHARES = (
    (("short", "count"), 0.15), (("short", "list"), 0.15), (("short", "max"), 0.15),
    (("fact", "binary"), 0.2), (("fact", "threeway"), 0.15), (("fact", "nei"), 0.05),
    (("free", "name"), 0.15),
)


def _explore_kind(unsupported: bool, pick: int) -> int:
    """0-2: supported exploratory queries; 3, 4: GROUP BY / ORDER BY."""
    return 3 + pick % 2 if unsupported else pick % 3


def _infer_shapes(rng: random.Random, n: int) -> List[dict]:
    """Infer shapes: exact counts per shape, randomly paired per seed.

    Block counts are stratified within each task; table sizes are one fixed
    grid dealt to the (task, blocks) groups with a golden-ratio stride, so
    each group gets sizes spread over the range and calls and tokens barely
    move across seeds.
    """
    tasks = _stratified(rng, n, TASK_SHARES)
    block_shares = [(1, 0.2), (2, 0.25), (3, 0.25), (4, 0.2), (5, 0.1)]
    grid = [8 + int(52 * (k + 0.5) / n) for k in range(n)]  # uniform 8..59 rows
    blocks = [0] * n
    for task in sorted(set(tasks)):
        members = [i for i in range(n) if tasks[i] == task]
        for i, b in zip(members, _stratified(rng, len(members), block_shares)):
            blocks[i] = b
    order: List[int] = []
    for group in sorted({(tasks[i], blocks[i]) for i in range(n)}):
        members = [i for i in range(n) if (tasks[i], blocks[i]) == group]
        rng.shuffle(members)
        order.extend(members)
    stride = round(n / 1.618)
    while math.gcd(stride, n) != 1:
        stride += 1
    rotate = rng.randrange(n)
    sizes = [0] * n
    for p, i in enumerate(order):
        sizes[i] = grid[(p * stride + rotate) % n]
    # wide tables (long club cells) are the largest 3%; truncation cuts them
    wide = [False] * n
    for i in sorted(range(n), key=lambda i: sizes[i])[n - round(0.03 * n):]:
        wide[i] = True
    shapes = [{"task": tasks[i], "blocks": blocks[i], "rows": sizes[i], "wide": wide[i]} for i in range(n)]
    for task in sorted(set(tasks)):
        members = [shapes[i] for i in range(n) if tasks[i] == task]
        for key, share in (("early", 0.5), ("supports", 0.5), ("sentences", 0.3)):
            for shape, flag in zip(members, _stratified(rng, len(members), [(True, share), (False, 1 - share)])):
                shape[key] = flag
    # 30% of the claims on executed blocks are wrong.  Query kinds (30% of
    # exploratory blocks unsupported) and text lengths cycle within each
    # (task, blocks) group, like the sizes.
    wrong = _stratified(rng, 5 * n, [(True, 0.3), (False, 0.7)])
    for p, i in enumerate(order):
        shape = shapes[i]
        shape["wrong"] = wrong[5 * i: 5 * i + 5]
        shape["explore"] = [_explore_kind((3 * p + b) % 10 < 3, p + b) for b in range(5)]
        shape["plan"] = 2 + p % 3
        shape["reason"] = 2 + (p // 3) % 2
    return shapes


def _teacher_shapes(rng: random.Random, n: int) -> List[dict]:
    """Teacher shapes: fixed for every seed, in table-size order.

    Here the local layers do the work, and their cost grows with rows times
    the number and kind of queries.  So task, block count, query kinds and
    flags follow the size rank in fixed cycles; the seed only shuffles the
    order and changes the contents (names, values, targets, wrong claims).
    """
    cycle = [task for task, share in TASK_SHARES for _ in range(round(20 * share))]
    shapes = []
    for r in range(n):
        shapes.append({
            "task": cycle[(7 * r) % len(cycle)],
            "blocks": (3, 4, 5, 3, 4)[r % 5],
            "rows": int(round(20 * 250 ** ((n - r - 0.5) / n))),  # log-uniform 20..5000 rows
            "wide": False,
            "early": r % 2 == 0,
            "supports": (r // 2) % 2 == 0,
            "sentences": r % 10 < 3,
            "wrong": [(5 * r + b) % 10 < 3 for b in range(5)],
            "explore": [_explore_kind((3 * r + b) % 10 < 3, r + b) for b in range(5)],
            "plan": 10 + r % 5,
            "reason": 10 + (r // 5) % 5,
        })
    rng.shuffle(shapes)
    return shapes


def make_workload(workload: str, seed: int) -> Workload:
    """Build a workload's inputs and scripts; the same seed gives the same inputs.

    Counts of each instance shape are fixed per workload (only their order
    and contents depend on the seed), so figures move little across seeds.
    """
    if workload not in WORKLOAD_SIZES:
        raise ValueError("unknown workload %r" % workload)
    gen = _Gen(workload, seed)
    rng = gen.rng
    n = WORKLOAD_SIZES[workload]
    shapes = _teacher_shapes(rng, n) if gen.teacher else _infer_shapes(rng, n)

    instances: List[dict] = []
    scripts: Dict[str, Script] = {}
    expected: Dict[str, dict] = {}
    correct: Dict[str, bool] = {}
    for i, spec in enumerate(shapes):
        inst, script, exp, ok = gen.instance(i + 1, spec)
        instances.append(inst)
        scripts[inst["query"]] = script
        expected[inst["id"]] = exp
        correct[inst["id"]] = ok

    faults: Dict[str, str] = {}
    if workload == "infer_http_faults":
        # one 429 for 6% of instances, a 503 on every attempt for 1%: together
        # above 5%, so latency_p95_ms falls inside the retried instances.  They
        # sit in the first 80% of the pass, so a client still backing off when
        # the other runs out of work does not make the pass time swing.
        head = int(n * 0.8)
        kinds = _stratified(rng, head, [("429", 0.06 * n / head), ("503", 0.01 * n / head), ("", 1 - 0.07 * n / head)])
        for inst, kind in zip(instances, kinds):
            if kind:
                faults[inst["id"]] = kind
            if kind == "503":
                expected[inst["id"]] = None
                correct[inst["id"]] = False
    return Workload(
        name=workload,
        seed=seed,
        instances=instances,
        scripts=scripts,
        expected=expected,
        expected_correct=correct,
        faults=faults,
    )


# ---------------------------------------------------------------------------
# the model


_QUERY_RE = re.compile(r"\n## (?:Question|Claim)\n(.*?)\n\n## Table Context", re.S)
WARMUP_TEXT = "Ready."


@dataclass
class Completion:
    text: str
    finish_reason: str
    prompt_tokens: int
    decoded_tokens: int
    instance_id: Optional[str]
    round: int

    @property
    def service_ms(self) -> float:
        return service_ms(self.prompt_tokens, self.decoded_tokens)


class Counters:
    """Calls and char/4 token estimates of completions served, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.prompt_tokens = 0
        self.decoded_tokens = 0
        self.busy_ms = 0.0

    def record(self, prompt: str, decoded: str, busy_ms: float = 0.0) -> None:
        with self._lock:
            self.calls += 1
            self.prompt_tokens += est_tokens(prompt)
            self.decoded_tokens += est_tokens(decoded)
            self.busy_ms += busy_ms

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": self.calls,
                "prompt_tokens": self.prompt_tokens,
                "decoded_tokens": self.decoded_tokens,
                "busy_ms": self.busy_ms,
            }


class SimModel:
    """The deterministic model behind both the HTTP endpoint and the in-process backend."""

    def __init__(self, scripts: Dict[str, Script]) -> None:
        self.scripts = scripts

    def script_for(self, content: str) -> Optional[Script]:
        found = _QUERY_RE.findall("\n" + content)
        return self.scripts.get(found[-1]) if found else None

    def complete(self, content: str, stop: Optional[Sequence[str]], max_tokens: int) -> Completion:
        script = self.script_for(content)
        resolved = 0
        if script is None:
            text = WARMUP_TEXT
        else:
            head, sep, partial = content.rpartition("## Answer")
            resolved = script.round_of(partial) if sep else 0
            body = script.continuation(resolved)
            value = script.answer_value(result_under_last_marker(partial + body))
            text = body + script.answer_line(value)
        finish = "stop"
        cut = len(text)
        for s in stop or ():
            at = text.find(s) if s else -1
            if 0 <= at < cut:
                cut = at
        if cut > 4 * max_tokens:
            cut, finish = 4 * max_tokens, "length"
        text = text[:cut]
        return Completion(
            text=text,
            finish_reason=finish,
            prompt_tokens=est_tokens(content),
            decoded_tokens=est_tokens(text),
            instance_id=script.instance_id if script else None,
            round=resolved,
        )
