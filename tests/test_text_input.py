"""Every text loader turns unreadable input into a DataError naming the file:
bytes that are not UTF-8, and (fuzzed) arbitrary bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalsim.config import load_config
from vocalsim.errors import DataError
from vocalsim.manifest import MANIFEST_FIELDS, load_manifest
from vocalsim.pairs import read_pairs_csv
from vocalsim.textfeat import load_lexicon, load_synonyms, load_transcript

# each loader with a first line it accepts, so fuzzed input also reaches the
# row parsing behind the header check
LOADERS = {
    "config": (load_config, b"seed = 3\n"),
    "manifest": (load_manifest, ",".join(MANIFEST_FIELDS).encode() + b"\n"),
    "pairs": (read_pairs_csv, b"left_id,right_id,label_binary,label_score,split\n"),
    "transcript": (load_transcript, b"start_time\tstop_time\tspeaker\tvalue\n"),
    "synonyms": (load_synonyms, b"sad\tunhappy\n"),
    "lexicon": (load_lexicon, b"1 300\n"),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("content", [b"\xff\xfe", b"ok line\n\xc3("])
def test_non_utf8_is_data_error_naming_the_file(tmp_path, name, content):
    loader, header = LOADERS[name]
    path = tmp_path / f"input-{name}.txt"
    path.write_bytes(header + content)
    with pytest.raises(DataError, match=f"input-{name}.txt") as info:
        loader(path)
    assert "utf-8" in str(info.value)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    database=None,
)
@given(
    with_header=st.booleans(),
    body=st.one_of(
        st.binary(max_size=300),
        st.text(max_size=300).map(lambda text: text.encode("utf-8")),
    ),
)
def test_arbitrary_bytes_load_or_raise_data_error(fuzz_dir, name, with_header, body):
    loader, header = LOADERS[name]
    path = fuzz_dir / f"fuzz-{name}.txt"
    path.write_bytes((header if with_header else b"") + body)
    try:
        loader(path)
    except DataError as exc:
        assert str(path) in str(exc)
