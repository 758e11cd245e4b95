"""Golden CLI outputs: the exit code and the sha256 of stdout, per command.

Every command runs in text and JSON at 2n <= 8 (DOT too for `graph` and
`analyze`), and `singular-locus`, `analyze`, `interval` and `graph` (text,
DOT and JSON) also at 2n = 10, where words and labels print in the comma
form, beside the refusals: over the cap, a bad override, an override on a
command that reads no cap, an odd degree, bad text, digits other than ASCII
and a flag over the 16-row cap.
The pinned values were captured from the CLI before its degree checks were
merged into `involutions.check_degree` and before its handlers returned
payloads to one emitter in `main`, so any change to a command's stdout or
exit code fails here; the refusals of other digits came later, and pin
exit 2 with nothing on stdout.  Stderr is not pinned: its wording may change.  Every command of
`cli.COMMANDS` must have a case for each `--output` it accepts, and every
JSON stdout must be one object with a string "schema".

To see a case's current value, run
``python -m sporbits.cli <argv>`` and hash its stdout with ``sha256sum``
(write the flag files as `flag_files` does for `classify`; their text is
pinned too).
"""

import hashlib
import json

import pytest

from sporbits.cli import COMMANDS, main
from sporbits.geometry import flag_to_json, gram_basis_flag, random_symplectic, transform_flag
from sporbits.involutions import parse_involution

EMPTY = hashlib.sha256(b"").hexdigest()

# id -> (argv, exit code, sha256 of stdout); "{flag}", "{flag10}" and
# "{identity18}" are the flag files.
CASES = {
    "enumerate": (["enumerate", "--degree", "8"], 0, "0d3bfbca10c09b40556d3852db29b243f296edc3716fe326cd9f6e4a24054ad5"),
    "enumerate-json": (["enumerate", "--degree", "6", "--output", "json"], 0, "ed42c8af19058ccc60ee36a991c2da9df10d4344bff357542defa4d3ad95bcf9"),
    "rank": (["rank", "64827153"], 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    "rank-json": (["rank", "64827153", "--output", "json"], 0, "60169bd90fcc215109561ad1b2a8aedbba76b464e0aac9420fea5e8aa3042513"),
    "order": (["order", "4321", "3412"], 0, "e032503cbb6eb5bd307d950e3f3f7e1adc8cdd3cc756efa9e2221df34e48143f"),
    "order-json": (["order", "351624", "214365", "--output", "json"], 0, "adf5c9dbb42de3b83e24ba1dc7ba31bf8affae02ebaf6f73fa12d827f1c956c7"),
    "interval": (["interval", "351624"], 0, "2b5250c17cdd50ee16ef5c52d3da197295dc9e0dfb5a78fb366ac9176469ab4b"),
    "interval-json": (["interval", "64827153", "--output", "json"], 0, "2eb6a601ebf8735bfa2691c10c73c40457635527fc690c53570f37cc31f1e1af"),
    "poly": (["poly", "47513826"], 0, "d7372a19515e6b949d32efc85d8dd68595888652ee7a326996ac3dc23b6ff422"),
    "poly-json": (["poly", "21436587", "--output", "json"], 0, "cac897bdd75f6480b5c528832bf57522651ef12edda4004b1640abc2e23d0936"),
    "factor": (["factor", "21436587"], 0, "d88ea570ab5082bfc5c0c089560b8bd1f7c0a270a86599af5780da9b25b660a1"),
    "factor-json": (["factor", "21436587", "--output", "json"], 0, "8ffc33dc782288e118d83fdfd828971bd44ddd394e41a0b5d0c7c2b6d76d319c"),
    "factor-refused": (["factor", "351624"], 2, EMPTY),
    "factor-refused-json": (["factor", "47513826", "--output", "json"], 2, "29c5f4ceffb8d2265f520736581d9e9030656df41ad89d078ecb327419658a53"),
    "graph": (["graph", "351624"], 0, "dab94284e3747bc9cfda8c9406b8b36f3e99e27bb8c18dfe4f62a8698529d674"),
    "graph-json": (["graph", "351624", "--bottom", "564312", "--output", "json"], 0, "790ab76003d0590b69e42706fb8913794190b20fb8941ec0d0afdbe8aecdcd2c"),
    "graph-dot": (["graph", "64827153", "--output", "dot"], 0, "6110eec58528073a6ed0858d680be7c5097d4b10f400908b46ef0e8ac5441d17"),
    "avoid": (["avoid", "47513826"], 0, "e7ea55539e1158a7af0a92c718bad2173e587ab6b416c6483346a8f0b63bc956"),
    "avoid-json": (["avoid", "21436587", "--output", "json"], 0, "ccb0f9733582d2b4fd193bc1c26b39ae4af1c1470ae1c7f75f3aa85a797986ba"),
    "analyze": (["analyze", "47513826"], 0, "4fd0ef9842dca2633eddca13bc2627bfadb7f5383f1747e16a92fd3d5d95567e"),
    # An avoider: the only run of the "bad pattern: none" and empty-locus lines.
    "analyze-avoider": (["analyze", "21436587"], 0, "5ad42aa74ce5e93cd1b809043c56b7fa5ce711c7e49b9055f7d405203e3f2309"),
    "analyze-json": (["analyze", "64827153", "--output", "json"], 0, "8067830cf44c8b460e9784a7a013286c9a20b6246b9132ef5c873e22db6a55b0"),
    "analyze-dot": (["analyze", "351624", "--output", "dot"], 0, "029480f702041ab7c0d87a01c1e0b774df6799d34f10f9887f442033d6113188"),
    "classify": (["classify", "{flag}", "--grid"], 0, "ab897ea8c8b3508121dc92511cf5659fb3def97933a99b0e8ef1f34fc2526fd9"),
    "classify-json": (["classify", "{flag}", "--output", "json"], 0, "deb4615de4bca1c0e4ce586fa305a8921c8ae215309ca39385b97a3746a6f0ea"),
    "classify-beyond-cap": (["classify", "{flag}", "--max-degree-override", "6"], 0, "df44917ae22f1d28166096f2a9b3652f6172f66336e313be64448f8ad59ed368"),
    "classify-over-cap": (["classify", "{identity18}"], 3, EMPTY),
    # Ten rows with entries such as -1519/2 and -395/4: the orbit of 7,6,10,9,8,2,1,5,4,3 moved.
    "classify-ten-grid": (["classify", "{flag10}", "--grid"], 0, "a24f72a0e85f40be5c49a1ec4ef137427bb85f92e39a467e2363400f39598267"),
    "verify-theorem": (["verify-theorem", "--degree", "8"], 0, "f95ea7db32893c7723006af96a4d6906eec149771754ef40135369d1fab0b5b8"),
    "verify-theorem-json": (["verify-theorem", "--degree", "6", "--output", "json"], 0, "13ebf86240d50a4018708d3e3314b8168d551d51a2cdf96038a833f966029eae"),
    "verify-theorem-default": (["verify-theorem", "--max-degree-override", "6"], 0, "a76fdc38150099f691e953eddccc940002f240370ee3a809cf8d661072659453"),
    "verify-table": (["verify-table"], 0, "da0e791cfb1d31d070ebc2ed5bce9e225cf82ba33986c764758127c5dba195bf"),
    "verify-table-json": (["verify-table", "--output", "json"], 0, "f52c2b5d8aa0833f8ce4028c19d36a16ba5443cb0b62b76996e0ab4895f6a504"),
    "singular-locus": (["singular-locus", "47513826"], 0, "33db9c0453612298d409526ad0901357f422ee65ac5ffd5bc87db10d02ead8e8"),
    "singular-locus-json": (["singular-locus", "351624", "--output", "json"], 0, "f76548ef4b90908786896b4060c069d9d0b2789fda0826a1b260092066afd7a6"),
    # Ten letters: members, maxima and intervals in the comma form.
    "singular-locus-ten": (["singular-locus", "10,4,7,2,9,8,3,6,5,1"], 0, "b866175d5870474eb7ad03bbc2d84a39c1cc93416130db56ffd4a6956967c207"),
    "analyze-ten-json": (["analyze", "7,6,10,9,8,2,1,5,4,3", "--output", "json"], 0, "9e063dac6f490b1a4adf99a0cb04536e2ce99924c80fbee1ba4f210de1a34ea9"),
    "interval-ten-json": (["interval", "8,5,10,7,2,9,4,1,6,3", "--output", "json"], 0, "c3e6119ebb843cf9d2a24ff016485c9b1378c4a8678351f1b2563593f05cab57"),
    # Graph vertices and labels such as 1,10 in the comma form, with and without --bottom.
    "graph-ten": (["graph", "8,7,6,5,4,3,2,1,10,9", "--bottom", "10,8,7,6,9,4,3,2,5,1"], 0, "19a94f41b295b406a65243ea9541d23cbf589d8521a68efab03a67a281b166e7"),
    "graph-ten-dot": (["graph", "2,1,10,9,8,7,6,5,4,3", "--output", "dot"], 0, "bd17e6e5b2fae32dd3daacbaf96afed964da08e442bdda0778e5b3d4fb20885a"),
    "graph-ten-json": (["graph", "3,9,1,10,8,7,6,5,2,4", "--output", "json"], 0, "9fdc549e3ad379731d7f212d7019ac3280b87eabe5a1e50e3557d64cd2d62730"),
    "export-bad-patterns": (["export-bad-patterns"], 0, "a86fc6a27fb2609d0ad4c7046214d010b1bc81185d044c9699b0750906ce3a1e"),
    "export-bad-patterns-json": (["export-bad-patterns", "--output", "json"], 0, "4a86bad52903252c9b1054d878f6827d1dedb4cf7b5d0ed2fb77c2a674804477"),
    # Refusals: nothing on stdout.
    "enumerate-over-cap": (["enumerate", "--degree", "12"], 3, EMPTY),
    "poly-over-cap": (["poly", "2,1,4,3,6,5,8,7,10,9,12,11"], 3, EMPTY),
    "verify-theorem-over-cap": (["verify-theorem", "--degree", "12", "--output", "json"], 3, EMPTY),
    "override-16": (["enumerate", "--degree", "4", "--max-degree-override", "16"], 3, EMPTY),
    "override-7": (["interval", "2143", "--max-degree-override", "7"], 2, EMPTY),
    # `rank` reads no degree cap, so argparse refuses the override.
    "rank-override": (["rank", "2143", "--max-degree-override", "10"], 2, EMPTY),
    "degree-5": (["enumerate", "--degree", "5"], 2, EMPTY),
    "verify-theorem-degree-5": (["verify-theorem", "--degree", "5"], 2, EMPTY),
    "bad-text": (["analyze", "2143x"], 2, EMPTY),
    # An empty --bottom is bad text, never the default w0.
    "graph-empty-bottom": (["graph", "2143", "--bottom", ""], 2, EMPTY),
    # Only ASCII digits are read as numbers.
    "rank-superscript": (["rank", "²1"], 2, EMPTY),
    "rank-arabic-indic": (["rank", "٢١"], 2, EMPTY),
    "rank-arabic-indic-entry": (["rank", "2,١"], 2, EMPTY),
    "enumerate-degree-arabic-indic": (["enumerate", "--degree", "٤"], 2, EMPTY),
    "enumerate-degree-underscore": (["enumerate", "--degree", "1_0"], 2, EMPTY),
    "override-arabic-indic": (["verify-theorem", "--degree", "4", "--max-degree-override", "١٤"], 2, EMPTY),
}


def _output(argv):
    return argv[argv.index("--output") + 1] if "--output" in argv else "text"


def _golden_flag():
    return transform_flag(gram_basis_flag(parse_involution("64827153")), random_symplectic(4, 5))


def _golden_flag10():
    return transform_flag(gram_basis_flag(parse_involution("7,6,10,9,8,2,1,5,4,3")), random_symplectic(5, 3))


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    (tmp / "flag.json").write_text(flag_to_json(_golden_flag()))
    (tmp / "flag10.json").write_text(flag_to_json(_golden_flag10()))
    (tmp / "identity18.json").write_text(json.dumps([[int(i == j) for j in range(18)] for i in range(18)]))
    return {"{flag}": str(tmp / "flag.json"), "{flag10}": str(tmp / "flag10.json"), "{identity18}": str(tmp / "identity18.json")}


def test_golden_flag_files_text():
    # The classify goldens read these files, so their text is pinned too.
    digests = [hashlib.sha256(flag_to_json(f()).encode()).hexdigest() for f in (_golden_flag, _golden_flag10)]
    assert digests == [
        "82ce398ed1b3bede5f420e9ece810aafd6b4de548199341f900abf51afa73d83",
        "6cac07921f5732bee0a46b62ea6024e4aff0fe77be418b8396f4d741169d2f70",
    ]


def _run(capsys, flag_files, argv):
    try:
        code = main([flag_files.get(a, a) for a in argv])
    except SystemExit as exc:  # argparse refuses a bad option value itself
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(capsys, flag_files, case):
    argv, code, digest = CASES[case]
    got, out = _run(capsys, flag_files, argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_every_command_output_is_pinned():
    wanted = {(c.name, fmt) for c in COMMANDS for fmt in ("text", "json") + (("dot",) if c.dot else ())}
    pinned = {(argv[0], _output(argv)) for argv, code, _ in CASES.values() if code == 0}
    assert wanted - pinned == set()


JSON_CASES = sorted(k for k, (argv, _, digest) in CASES.items() if _output(argv) == "json" and digest != EMPTY)


@pytest.mark.parametrize("case", JSON_CASES)
def test_json_stdout_is_one_object_with_a_schema(capsys, flag_files, case):
    _, out = _run(capsys, flag_files, CASES[case][0])
    data = json.loads(out)
    assert isinstance(data, dict) and isinstance(data.get("schema"), str)
