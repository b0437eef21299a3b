"""Property tests: the Boxer packs anything, losslessly."""

from hypothesis import given, settings, strategies as st

from repro.storage import Boxer, assemble, read_entries

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32),
        st.binary(min_size=0, max_size=1500),
    ),
    max_size=25,
    unique_by=lambda pair: pair[0],
)


@given(records, st.integers(min_value=128, max_value=2048))
@settings(max_examples=100, deadline=None)
def test_pack_unpack_roundtrip(pairs, track_size):
    boxer = Boxer(track_size)
    result = boxer.pack(pairs)
    # every image fits in a track
    assert all(len(image) <= track_size for image in result.images)
    # every record reassembles byte-for-byte from its placements
    for oid, data in pairs:
        fragments = []
        for image_index in result.placements[oid]:
            fragments.extend(
                f for f in read_entries(result.images[image_index])
                if f.oid == oid
            )
        # fragments of one object may repeat an index only if two of its
        # fragments landed in the same image — dedupe by sequence
        unique = {f.seq: f for f in fragments}
        assert assemble(list(unique.values()), len(result.placements[oid])) == data


@given(records)
@settings(max_examples=50, deadline=None)
def test_placements_cover_all_oids(pairs):
    boxer = Boxer(512)
    result = boxer.pack(pairs)
    assert set(result.placements) == {oid for oid, _ in pairs}
    for oid, spots in result.placements.items():
        assert spots == sorted(spots)
        assert all(0 <= index < len(result.images) for index in spots)


@given(st.integers(min_value=0, max_value=2**20), st.binary(max_size=8000),
       st.integers(min_value=128, max_value=1024))
@settings(max_examples=50, deadline=None)
def test_split_respects_capacity_and_order(oid, data, track_size):
    boxer = Boxer(track_size)
    fragments = boxer.split(oid, data)
    assert b"".join(f.payload for f in fragments) == data
    assert [f.seq for f in fragments] == list(range(len(fragments)))
    assert all(f.total == len(fragments) for f in fragments)
    assert all(len(f.payload) <= boxer.max_payload() for f in fragments)
