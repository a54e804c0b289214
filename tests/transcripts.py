"""Canned model transcripts and tables for end-to-end replay tests.

Each case bundles an instance, the full response a model would produce in
one shot (including the execution result it guessed itself), and the replay
script for the pipeline: entry 0 is that full response, entry 1 (when the
response contains SQL) is the continuation the model produces after the
real execution result has been spliced in.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from tabreason.responses import FinalAnswer
from tabreason.tables import GoldAnswer, Instance, SentenceContext, Table


@dataclass(frozen=True)
class ReplayCase:
    name: str
    instance: Instance
    script: Tuple[str, ...]
    transcript: str
    expected_answers: Tuple[str, ...] = ()
    expected_label: Optional[str] = None
    expected_api_calls: int = 2
    expect_fallback: bool = False
    # text the executor should splice in; None when not asserted exactly
    expected_injection: Optional[str] = None


# ---------------------------------------------------------------------------
# Cooking-competition table: single-column lookup through a fenced SQL block
# with the result marker on its own line.

CHEF_TABLE = Table(
    ["Name", "Age", "Hometown", "Occupation", "Culinary P.O.V.", "Eliminated"],
    [
        ["Damaris Phillips", "31", "Louisville, KY", "Culinary Teacher", "Modern Southern Food", "Winner"],
        ["Rodney Henry", "47", "Baltimore, MD", "Pie Shop Owner", "Pie Style", "Second Place"],
        ["Russell Jackson", "49", "San Francisco, CA", "Underground Chef", "Seven Culinary Sins", "Third Place"],
        ["Stacey Poon-Kinney", "34", "San Diego, CA", "Restaurant Owner", "Vintage with a Modern Twist", "Week 10"],
        ["Nikki Dinki", "29", "New York, NY", "Food Blogger/Online Host", "Semi-Vegetarian / Meat on the Side", "Week 9"],
        ["Chad Rosenthal", "37", "Ambler, PA", "Restaurant Owner", "Jewish BBQ Guy", "Week 7"],
        ["Chris Hodgson", "26", "Cleveland, OH", "Chef/Restaurateur", "Compassion for Food", "Week 6"],
        ["Viet Pham", "33", "Salt Lake City, UT", "Chef/Restaurant Owner", "The American Dream", "Week 5"],
        ['Connie Lovely Jackson"', "27", "Los Angeles, CA", "Caterer", "Party on a Plate", "Week 4 / Week 8(Winner of Star Salvation)"],
        ["Danushka Lysek", "37", "New York, NY", "Private Chef/Model", "Your Private Chef", "Week 3"],
        ["Andres Guillama", "26", "Waynesville, NC", "Childhood Obesity Prevention Coach", "Teaching Men to Cook", "Week 2"],
        ["Daniela Perez-Reyes", "28", "Haleiwa, HI", "Bartender/Caterer", "Peruvian Princess", "Week 1"],
    ],
)

_CHEF_PRE = """1. Plan for answering the question
- The question asks for the top chef, which implies we are looking for the winner of the competition.

- To find the top chef, we need to look for the name associated with the position of "Winner" in the table.

2. Write SQL and execute SQL
```sql
SELECT `Name` FROM w WHERE `Eliminated` = 'Winner'
```
Expected Result:
```
Name
Damaris Phillips
```"""

_CHEF_POST = """

3.Step-by-step Answer prediction
- The question is asking for the name of the top chef from the given table.

- Based on the execution result of the SQL query, the name associated with the position of "Winner" is Damaris Phillips.

- Therefore, the top chef according to the table is Damaris Phillips.

The final answer is Damaris Phillips."""

CHEF_CASE = ReplayCase(
    name="chef_competition",
    instance=Instance(
        id="chef_competition",
        task="short_qa",
        query="who was the top chef?",
        table=CHEF_TABLE,
        gold=GoldAnswer(answers=("Damaris Phillips",)),
    ),
    script=(_CHEF_PRE + _CHEF_POST, _CHEF_POST),
    transcript=_CHEF_PRE + _CHEF_POST,
    expected_answers=("Damaris Phillips",),
    expected_api_calls=2,
    expected_injection="| Name |\n| Damaris Phillips |",
)


# ---------------------------------------------------------------------------
# Football-season table: verification with the marker riding the closing
# fence, an OR filter, and a blank row in the data.

TEXANS_TABLE = Table(
    ["week", "date", "opponent", "result", "game site", "record", "tv time", "attendance"],
    [
        ["1", "september 7 , 2003", "miami dolphins", "w 21 - 20", "dolphin stadium", "1 - 0", "cbs 12:00 pm", "73010"],
        ["2", "september 14 , 2003", "new orleans saints", "l 10 - 31", "louisiana superdome", "1 - 1", "cbs 12:00 pm", "68390"],
        ["3", "september 21 , 2003", "kansas city chiefs", "l 14 - 42", "reliant stadium", "1 - 2", "cbs 12:00 pm", "70487"],
        ["4", "september 28 , 2003", "jacksonville jaguars", "w 24 - 20", "reliant stadium", "2 - 2", "cbs 12:00 pm", "70041"],
        ["5", "-", "-", "-", "-", "-", "-", ""],
        ["6", "october 12 , 2003", "tennessee titans", "l 17 - 38", "lp field", "2 - 3", "cbs 12:00 pm", "68809"],
        ["7", "october 19 , 2003", "new york jets", "l 14 - 19", "reliant stadium", "2 - 4", "cbs 12:00 pm", "70623"],
        ["8", "october 26 , 2003", "indianapolis colts", "l 21 - 30", "rca dome", "2 - 5", "cbs 12:00 pm", "56132"],
        ["9", "november 2 , 2003", "carolina panthers", "w 14 - 10", "reliant stadium", "3 - 5", "fox 12:00 pm", "70052"],
        ["10", "november 9 , 2003", "cincinnati bengals", "l 27 - 34", "paul brown stadium", "3 - 6", "cbs 12:00 pm", "50437"],
        ["11", "november 16 , 2003", "buffalo bills", "w 12 - 10", "ralph wilson stadium", "4 - 6", "cbs 12:00 pm", "72677"],
        ["12", "november 23 , 2003", "new england patriots", "l 20 - 23 (ot)", "reliant stadium", "4 - 7", "cbs 12:00 pm", "70719"],
        ["13", "november 30 , 2003", "atlanta falcons", "w 17 - 13", "reliant stadium", "5 - 7", "fox 12:00 pm", "70388"],
        ["14", "december 7 , 2003", "jacksonville jaguars", "l 0 - 27", "alltel stadium", "5 - 8", "cbs 12:00 pm", "43363"],
        ["15", "december 14 , 2003", "tampa bay buccaneers", "l 3 - 16", "raymond james stadium", "5 - 9", "cbs 12:00 pm", "65124"],
        ["16", "december 21 , 2003", "tennessee titans", "l 24 - 27", "reliant stadium", "5 - 10", "cbs 12:00 pm", "70758"],
        ["17", "december 28 , 2003", "indianapolis colts", "l 17 - 20", "reliant stadium", "5 - 11", "cbs 12:00 pm", "70680"],
    ],
    caption="2003 houston texans season",
)

_TEXANS_PRE = """Let's check the claim in 3 steps.

1. Plan for verify the claim
- To verify the claim, we need to compare the points scored by the Houston Texans in the games on November 16, 2003, and September 28, 2003. We will write a SQL query to retrieve the result for these specific dates.

2. Write SQL and execute SQL
```sql
SELECT `date`, `result` FROM w WHERE `date` = 'november 16 , 2003' OR `date` = 'september 28 , 2003'
```Expected Result:

```
date            | result
november 16 , 2003 | w 12 - 10
september 28 , 2003 | w 24 - 20
```"""

_TEXANS_POST = """

3. Step-by-step answer prediction
- The claim states that the Houston Texans scored more points on November 16, 2003, than on September 28, 2003.
- According to the SQL query result, the Houston Texans won with a score of 12-10 on November 16, 2003, and won with a score of 24-20 on September 28, 2003.
- The score on November 16, 2003, is less than the score on September 28, 2003.
- Therefore, the claim is refuted by the table.

The answer is REFUTES."""

TEXANS_CASE = ReplayCase(
    name="texans_season",
    instance=Instance(
        id="texans_season",
        task="fact_verification",
        query="The houston texans score more point on november 16 , 2003 than on september 28 , 2003",
        table=TEXANS_TABLE,
        gold=GoldAnswer(label="REFUTES"),
    ),
    script=(_TEXANS_PRE + _TEXANS_POST, _TEXANS_POST),
    transcript=_TEXANS_PRE + _TEXANS_POST,
    expected_label="REFUTES",
    expected_api_calls=2,
    expected_injection=(
        "| date | result |\n"
        "| september 28 , 2003 | w 24 - 20 |\n"
        "| november 16 , 2003 | w 12 - 10 |"
    ),
)


# ---------------------------------------------------------------------------
# Infobox-style two-column table: the SQL names a column that does not
# exist, so the pipeline falls back to the claimed result.

DELTA_GREEN_TABLE = Table(
    ["Designer(s)", "Dennis Detwiller, Adam Scott Glancy, John Scott Tynes"],
    [
        ["Publisher(s)", "Pagan Publishing Arc Dream Publishing Pelgrane Press (The Fall of DELTA GREEN)"],
        ["Publication date", "1997 (Sourcebook) 2016 (Arc Dream Publishing) (Standalone RPG)2018 (The Fall of DELTA GREEN)"],
        ["Genre(s)", "Horror, Conspiracy fiction"],
        ["System(s)", "Call of Cthulhu, GUMSHOE"],
    ],
    page_title="Delta Green",
    caption="Delta Green",
)

DELTA_GREEN_SENTENCES = (
    SentenceContext(
        title="Arc Dream Publishing",
        text=(
            "Arc Dream Publishing is a small role-playing game publishing company "
            "founded in 2002 by Pagan Publishing veteran Dennis Detwiller and editor "
            "Shane Ivey after the release of their first roleplaying game Godlike: "
            "Superhero Roleplaying in a World on Fire, 1936-1946 was published by "
            "Hobgoblynn Press."
        ),
    ),
    SentenceContext(
        title="Delta Green",
        text="The book was published in cooperation with Arc Dream Publishing.",
    ),
    SentenceContext(
        title="Arc Dream Publishing",
        text=(
            "The name ARC DREAM comes from one of Dennis Detwiller's other roleplaying "
            "games—Delta Green—where it is a secret government project."
        ),
    ),
    SentenceContext(
        title="Delta Green",
        text=(
            "Delta Green is a setting for the Call of Cthulhu role-playing game created "
            "by Adam Scott Glancy, Dennis Detwiller, and John Scott Tynes, a.k.a. the "
            "Delta Green Partnership, of the Seattle gaming house Pagan Publishing."
        ),
    ),
    SentenceContext(
        title="Delta Green",
        text=(
            "In August 2011, Arc Dream Publishing and the Delta Green Partnership "
            "announced development of a standalone Delta Green role-playing game."
        ),
    ),
)

DELTA_GREEN_CLAIMED = """Publisher
Pagan Publishing
Arc Dream Publishing
Pelgrane Press (The Fall of DELTA GREEN)"""

_DELTA_GREEN_PRE = """Let's check the claim in 3 steps.

1. Plan for verify the claim
- To verify the claim, we need to confirm that Delta Green was published by Arc Dream Publishing and that Arc Dream Publishing is a small role-playing game publishing company founded in 2002.
- We can use the table to verify the publisher of Delta Green and the sentence context to confirm the founding year of Arc Dream Publishing.

2. Write SQL and execute SQL
```sql
SELECT Publisher FROM w
```
Expected result:
```
Publisher
Pagan Publishing
Arc Dream Publishing
Pelgrane Press (The Fall of DELTA GREEN)
```"""

_DELTA_GREEN_POST = """

3. Step-by-step answer prediction
- The claim states that Delta Green was published by Arc Dream Publishing, which is a small role-playing game publishing company founded in 2002.
- The SQL query result shows that Delta Green was published by Pagan Publishing, Arc Dream Publishing, and Pelgrane Press. This supports the claim that Arc Dream Publishing is one of the publishers of Delta Green.
- The sentence context Arc Dream Publishing confirms that Arc Dream Publishing is a role-playing game publishing company founded in 2002.
- The sentence context Delta Green supports the claim that Delta Green is a setting for the Call of Cthulhu role-playing game.

Therefore, the answer is SUPPORTS."""

DELTA_GREEN_CASE = ReplayCase(
    name="delta_green",
    instance=Instance(
        id="delta_green",
        task="fact_verification",
        query=(
            "Delta Green was published by Arc Dream Publishing  which is a small "
            "role-playing game publishing company founded in 2002."
        ),
        table=DELTA_GREEN_TABLE,
        sentences=DELTA_GREEN_SENTENCES,
        gold=GoldAnswer(label="SUPPORTS"),
    ),
    script=(_DELTA_GREEN_PRE + _DELTA_GREEN_POST, _DELTA_GREEN_POST),
    transcript=_DELTA_GREEN_PRE + _DELTA_GREEN_POST,
    expected_label="SUPPORTS",
    expected_api_calls=2,
    expect_fallback=True,
    expected_injection=DELTA_GREEN_CLAIMED,
)


# ---------------------------------------------------------------------------
# Court-judges table: the model writes an ISO date as its claimed result;
# the real execution returns the cell as written in the table.

JUDGES_TABLE = Table(
    ["Name", "Took office", "Left office", "Party"],
    [
        ["Freeborn G. Jewett", "July 5 , 1847", "December 31 , 1849", "Democratic"],
        ["Greene C. Bronson", "January 1 , 1850", "April 1851", "Democratic/ Anti-Rent"],
        ["Charles H. Ruggles", "April 1851", "December 31 , 1853", "Democratic"],
        ["Addison Gardiner", "January 1 , 1854", "December 31 , 1855", "Democratic/Anti-Rent"],
        ["Hiram Denio", "January 1 , 1856", "December 31 , 1857", "Democratic"],
        ["Alexander S. Johnson", "January 1 , 1858", "December 31 , 1859", "Democratic"],
        ["George F. Comstock", "January 1 , 1860", "December 31 , 1861", "American"],
        ["Samuel L. Selden", "January 1 , 1862", "July 1 , 1862", "Democratic"],
        ["Hiram Denio", "July 1 , 1862", "December 31 , 1865", "Democratic"],
        ["Henry E. Davies", "January 1 , 1866", "December 31 , 1867", "Republican / American"],
        ["William B. Wright", "January 1 , 1868", "January 12 , 1868", "Union"],
        ["Ward Hunt", "January 12 , 1868", "December 31 , 1869", "Republican"],
        ["Robert Earl", "January 1 , 1870", "July 4 , 1870", "Democratic"],
    ],
)

JUDGES_SENTENCES = (
    SentenceContext(
        title="Freeborn G. Jewett",
        text=(
            "Freeborn Garrettson Jewett ( August 4 , 1791 in Sharon , Litchfield County , "
            "Connecticut - January 27 , 1858 in Skaneateles , Onondaga County , New York ) "
            "was an American lawyer and politician who served as a U.S. Representative from "
            "New York and was the first Chief Judge of the New York Court of Appeals ."
        ),
    ),
    SentenceContext(
        title="Greene C. Bronson",
        text=(
            "Greene Carrier Bronson ( November 17 , 1789 in Simsbury , Hartford County , "
            "Connecticut - September 3 , 1863 in Saratoga , New York ) was an American "
            "lawyer and politician from New York ."
        ),
    ),
    SentenceContext(
        title="Samuel L. Selden",
        text=(
            "Samuel Lee Selden ( October 12 , 1800 Lyme , New London County , Connecticut - "
            "September 20 , 1876 Rochester , Monroe County , New York ) was an American "
            "lawyer and politician from New York ."
        ),
    ),
)

_JUDGES_PRE = """1. Plan for answering the question
- The question asks for the date when a judge named Freeborn G. Jewett left office.
- To answer the question, we need to find the row in the table that corresponds to Freeborn G. Jewett and then select the date he left office.

2. Write SQL and execute SQL
```sql
SELECT `Left office` FROM w WHERE `Name` = 'Freeborn G. Jewett'
```Expected Result:
```
Left office
1849-12-31
```"""

_JUDGES_POST = """

3.Step-by-step Answer prediction:
- The question is asking for the date when a specific judge, Freeborn G. Jewett, left office.
- Based on the execution result of the SQL query, Freeborn G. Jewett left office on December 31, 1849.
- Therefore, the date the judge left office is December 31, 1849.

The final answer is December 31, 1849."""

JUDGES_CASE = ReplayCase(
    name="court_judges",
    instance=Instance(
        id="court_judges",
        task="short_qa",
        query=(
            "when did the judge born August 4 , 1791 in Sharon , Litchfield County , "
            "Connecticut leave office ?"
        ),
        table=JUDGES_TABLE,
        sentences=JUDGES_SENTENCES,
        gold=GoldAnswer(answers=("December 31 , 1849",)),
    ),
    script=(_JUDGES_PRE + _JUDGES_POST, _JUDGES_POST),
    transcript=_JUDGES_PRE + _JUDGES_POST,
    expected_answers=("December 31, 1849",),
    expected_api_calls=2,
    expected_injection="| Left office |\n| December 31 , 1849 |",
)


# ---------------------------------------------------------------------------
# Experiment-results table: the claim is unanswerable from the table, the
# model writes no SQL, and the pipeline makes exactly one call.

DIALOG_AGENTS_TABLE = Table(
    ["Method", "VHUS Turns", "VHUS Inform", "VHUS Match", "VHUS Success"],
    [
        ["ACER", "22.35", "55.13", "33.08", "18.6"],
        ["PPO", "19.23", "56.31", "33.08", "18.3"],
        ["ALDM", "26.90", "54.37", "24.15", "16.4"],
        ["GDPL", "22.43", "52.58", "36.21", "19.7"],
    ],
    page_title=(
        "Guided Dialog Policy Learning: Reward Estimation for Multi-Domain "
        "Task-Oriented Dialog"
    ),
    caption="Table 5: Performance of different agents on the neural user simulator.",
)

_DIALOG_AGENTS_TRANSCRIPT = """1. Plan for answering the question
- The claim states that training does not converge within a reasonable training time in the natural state space with 75 actions.
- To answer the claim, we need to understand the training time and the number of actions in the state space.
- The table provides information about the performance of different agents, but it does not provide information about the training time or the number of actions.
- Since the table does not contain the necessary information to answer the claim, we cannot write an SQL query to extract this information from the table.

2. Write SQL and execute SQL
- No SQL query can be written as the table does not contain the required information about the training time or the number of actions.

3. Step-by-Step Reasoning:
- The claim is about the training time and the number of actions in the state space.
- The table provides information about the performance of different agents, but it does not provide information about the training time or the number of actions.
- Since the table does not contain the necessary information to answer the claim, we cannot confirm or refute the claim based on the provided context.

Therefore, the answer is "NOT ENOUGH INFO"."""

DIALOG_AGENTS_CASE = ReplayCase(
    name="dialog_agents",
    instance=Instance(
        id="dialog_agents",
        task="fact_verification",
        query=(
            "Here is a claim: In the natural state space with 75 actions, training does "
            "not converge within a reasonable training time. Does the following context "
            "support or refute the claim?"
        ),
        table=DIALOG_AGENTS_TABLE,
        gold=GoldAnswer(label="NOT ENOUGH INFO"),
    ),
    script=(_DIALOG_AGENTS_TRANSCRIPT,),
    transcript=_DIALOG_AGENTS_TRANSCRIPT,
    expected_label="NOT ENOUGH INFO",
    expected_api_calls=1,
)


ALL_CASES = (CHEF_CASE, TEXANS_CASE, DELTA_GREEN_CASE, JUDGES_CASE, DIALOG_AGENTS_CASE)


# ---------------------------------------------------------------------------
# Concluding sentences observed across real transcripts, with the answer each
# one should yield.  Rows: (name, text, task, labels, expected FinalAnswer).

LABELS_BINARY = ("true", "false")
LABELS_THREEWAY = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")

CONCLUSION_FIXTURES = (
    (
        "winner-name",
        "The final answer is Damaris Phillips.",
        "short_qa",
        None,
        FinalAnswer(kind="short", answers=("Damaris Phillips",)),
    ),
    (
        "date-keeps-its-comma",
        "The final answer is December 31, 1849.",
        "short_qa",
        None,
        FinalAnswer(kind="short", answers=("December 31, 1849",)),
    ),
    (
        "percentage",
        "The final answer is 48%.",
        "short_qa",
        None,
        FinalAnswer(kind="short", answers=("48%",)),
    ),
    (
        "bold-count",
        "The final answer is \\textbf{2}.",
        "short_qa",
        None,
        FinalAnswer(kind="short", answers=("2",)),
    ),
    (
        "markdown-bold-count",
        "The final answer is **2**.",
        "short_qa",
        None,
        FinalAnswer(kind="short", answers=("2",)),
    ),
    (
        "therefore-refutes",
        "Therefore, the answer is REFUTES.",
        "fact_verification",
        LABELS_THREEWAY,
        FinalAnswer(kind="label", label="REFUTES"),
    ),
    (
        "therefore-supports",
        "Therefore, the answer is SUPPORTS.",
        "fact_verification",
        LABELS_THREEWAY,
        FinalAnswer(kind="label", label="SUPPORTS"),
    ),
    (
        "quoted-not-enough-info",
        'Therefore, the answer is "NOT ENOUGH INFO".',
        "fact_verification",
        LABELS_THREEWAY,
        FinalAnswer(kind="label", label="NOT ENOUGH INFO"),
    ),
    (
        "plain-answer-is-refutes",
        "The answer is REFUTES.",
        "fact_verification",
        LABELS_THREEWAY,
        FinalAnswer(kind="label", label="REFUTES"),
    ),
    (
        "bold-supports-no-period",
        "Therefore, the answer is \\textbf{SUPPORTS}",
        "fact_verification",
        LABELS_THREEWAY,
        FinalAnswer(kind="label", label="SUPPORTS"),
    ),
    (
        "binary-bold-false",
        "The final answer is \\textbf{false}.",
        "fact_verification",
        LABELS_BINARY,
        FinalAnswer(kind="label", label="false"),
    ),
    (
        "free-form-sentence",
        "The final answer is that Peralta played very well at the 2015 CONCACAF Gold Cup.",
        "free_qa",
        None,
        FinalAnswer(
            kind="free",
            text="that Peralta played very well at the 2015 CONCACAF Gold Cup",
        ),
    ),
)


# ---------------------------------------------------------------------------
# Line pieces that random generations for segmentation checks are drawn from
# (acceptance criterion 5 and the pinned segmentation digest).

SEGMENTATION_PIECES = (
    "",
    "\n",
    "\n\n",
    "prose line\n",
    "1. Understand the question.\n",
    "2. Write SQL and execute SQL\n",
    "3. Answer prediction\n",
    "```sql\n",
    "```SQL\n",
    "```\n",
    "```Expected Result:\n",
    "````\n",
    "``` sql\n",
    "SQL:\n",
    "sql:\n",
    "SELECT `Name` FROM w WHERE `x` = 1\n",
    "SELECT COUNT(*) FROM w\n",
    "Expected Result:\n",
    "Expected result:\n",
    "Executed result:\n",
    "EXECUTED RESULT:\n",
    "| Name | Rank |\n",
    "| Damaris Phillips | 1 |\n",
    "Name\n",
    "  indented line\n",
    "The final answer is X.\n",
    "text with ``` inline\n",
    "| lone pipe\n",
)
