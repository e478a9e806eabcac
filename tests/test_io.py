import json

import numpy as np
import pytest

from semdist import (
    BinaryMask,
    CocoaImportError,
    GenConfig,
    ImageFormatError,
    InstanceRecord,
    LayerStackScene,
    RleError,
    RleMask,
    SchemaError,
    SdmFormatError,
    SemDistMap,
    amodal_mask_of,
    annotations_from_dict,
    annotations_to_dict,
    encode_semdist,
    generate,
    import_cocoa,
    rasterize_polygon,
    read_pgm,
    read_ppm,
    read_scene,
    read_semdist,
    rle_decode,
    rle_encode,
    scene_annotations,
    scene_from_dict,
    scene_to_dict,
    write_pgm,
    write_ppm,
    write_scene,
    write_semdist,
)


class TestRle:
    def test_s0_front_mask_counts(self, s0):
        rle = rle_encode(amodal_mask_of(s0, 1))
        assert rle.counts == (0, 2, 1, 2, 1, 2, 1)

    def test_leading_background_run(self, s0):
        rle = rle_encode(amodal_mask_of(s0, 2))
        assert rle.counts == (1, 2, 1, 2, 1, 2)

    def test_full_and_empty(self):
        full = rle_encode(BinaryMask(np.ones((2, 3), bool)))
        assert full.counts == (0, 6)
        empty = rle_encode(BinaryMask.zeros(3, 2))
        assert empty.counts == (6,)

    def test_round_trip_random_masks(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(25):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            mask = BinaryMask(rng.uniform(size=(h, w)) < 0.4)
            assert rle_decode(rle_encode(mask)) == mask

    def test_counts_must_sum_to_area(self):
        with pytest.raises(RleError):
            rle_decode(RleMask(3, 3, (0, 5)))

    def test_counts_must_be_non_negative_ints(self):
        with pytest.raises(RleError):
            RleMask(2, 2, (0, -4))
        with pytest.raises(RleError):
            RleMask(2, 2, (0, 2.0))
        with pytest.raises(RleError):
            RleMask(2, 2, (True, 3))

    def test_dimensions_positive(self):
        with pytest.raises(RleError):
            RleMask(0, 3, (0,))


class TestSceneJson:
    def test_sparse_round_trip(self, s0):
        assert scene_from_dict(scene_to_dict(s0)) == s0

    def test_dense_round_trip(self, s0):
        doc = scene_to_dict(s0, "dense")
        assert isinstance(doc["stacks"], list)
        assert len(doc["stacks"]) == 9
        assert scene_from_dict(doc) == s0

    def test_sparse_keys_are_pixel_indices(self, s0):
        doc = scene_to_dict(s0)
        # row 0 of the 3x3 grid holds only instance 1
        assert doc["stacks"]["0"] == [1]
        assert doc["stacks"]["4"] == [1, 2]
        assert doc["stacks"]["8"] == [2]

    def test_sparse_keys_are_row_major(self):
        # on a 3-wide, 2-high scene, (x=1, y=0) is key 1 row-major but 2
        # column-major, and (x=0, y=1) is key 3 row-major but 1 column-major
        stacks = np.zeros((1, 2, 3), dtype=np.int32)
        stacks[0, 0, 1] = 1
        stacks[0, 1, 0] = 2
        scene = LayerStackScene(3, 2, (InstanceRecord(1), InstanceRecord(2)), stacks)
        doc = scene_to_dict(scene)
        assert doc["stacks"] == {"1": [1], "3": [2]}
        assert scene_from_dict(doc) == scene

    def test_generated_scene_round_trips(self, corpus):
        for scene in corpus[:5]:
            assert scene_from_dict(scene_to_dict(scene)) == scene
            assert scene_from_dict(scene_to_dict(scene, "dense")) == scene

    def test_file_round_trip_is_deterministic(self, s0, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_scene(s0, first)
        write_scene(s0, second)
        assert first.read_bytes() == second.read_bytes()
        assert read_scene(first) == s0

    def test_unknown_top_level_field(self, s0):
        doc = scene_to_dict(s0)
        doc["colour"] = 1
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.colour"

    def test_unknown_instance_field(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"][0]["pose"] = []
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.instances[0].pose"

    def test_missing_field_reports_path(self, s0):
        doc = scene_to_dict(s0)
        del doc["width"]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.width"

    def test_duplicate_instance_ids_rejected(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"].append({"id": 1, "category": None})
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.instances[2].id"

    def test_stack_must_reference_known_ids(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = [99]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == '$.stacks["0"][0]'

    def test_stack_cell_duplicates_rejected(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = [1, 1]
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    @pytest.mark.parametrize("key", ["x", "-1", "01", "1.5", "9"])
    def test_sparse_key_validation(self, s0, key):
        doc = scene_to_dict(s0)
        doc["stacks"][key] = [1]
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_sparse_cells_must_not_be_empty(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = []
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_dense_length_must_match(self, s0):
        doc = scene_to_dict(s0, "dense")
        doc["stacks"].append([])
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.stacks"

    def test_stacks_type_checked(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"] = "nope"
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError) as err:
            scene_from_dict([1, 2])
        assert err.value.path == "$"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_scene(path)

    def test_category_type_checked(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"][0]["category"] = 7
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_bool_not_accepted_as_int(self, s0):
        doc = scene_to_dict(s0)
        doc["width"] = True
        with pytest.raises(SchemaError):
            scene_from_dict(doc)


class TestAnnotationsJson:
    def test_round_trip(self, s0):
        annotations = scene_annotations(s0)
        doc = annotations_to_dict(3, 3, annotations)
        width, height, back = annotations_from_dict(doc)
        assert (width, height) == (3, 3)
        assert back == annotations

    def test_doc_is_json_serializable(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        json.dumps(doc)

    def test_unknown_field_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["bbox"] = [0, 0, 1, 1]
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].bbox"

    def test_inconsistent_rle_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["amodal"] = [0, 5]
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].amodal"

    def test_visible_outside_amodal_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        # instance 1 occupies rows 0 and 1; claim full visibility of the grid
        doc["annotations"][0]["visible"] = [0, 9]
        doc["annotations"][0]["occlusion_rate"] = 0.0
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_rate_must_match_masks(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["occlusion_rate"] = 0.9
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_duplicate_ids_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"].append(dict(doc["annotations"][0]))
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_score_bounds_checked(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["score"] = 1.5
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)


class TestSdmBinary:
    def test_round_trip_bit_exact(self, s0, tmp_path):
        semdist = encode_semdist(s0, 2, 0.9)
        path = tmp_path / "map.sdm"
        write_semdist(semdist, path)
        back = read_semdist(path)
        assert back == semdist
        assert back.values.tobytes() == semdist.values.tobytes()

    def test_header_layout(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "map.sdm"
        write_semdist(semdist, path)
        blob = path.read_bytes()
        assert blob[:4] == b"SDM1"
        assert int.from_bytes(blob[4:8], "little") == 3   # width
        assert int.from_bytes(blob[8:12], "little") == 3  # height
        assert int.from_bytes(blob[12:16], "little") == 1  # channels
        assert len(blob) == 16 + 4 * 9

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.sdm"
        path.write_bytes(b"SDM1\x01")
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_bad_magic(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "bad.sdm"
        write_semdist(semdist, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"SDM2"
        path.write_bytes(bytes(blob))
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_payload_length_checked(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "trunc.sdm"
        write_semdist(semdist, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(SdmFormatError):
            read_semdist(path)
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_multichannel_rejected(self, s0, tmp_path):
        import struct

        path = tmp_path / "multi.sdm"
        payload = np.zeros(8, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 2, 2, 2) + payload)
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        import struct

        path = tmp_path / "range.sdm"
        payload = np.full(4, 1.5, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 2, 2, 1) + payload)
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_zero_dimension_rejected(self, tmp_path):
        import struct

        path = tmp_path / "zero.sdm"
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 0, 2, 1))
        with pytest.raises(SdmFormatError):
            read_semdist(path)


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(image, path)
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")
        assert np.array_equal(read_pgm(path), image)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        image = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        assert np.array_equal(read_ppm(path), image)

    def test_write_validates_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2), dtype=np.float32), tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            write_ppm(np.zeros((2, 2, 4), dtype=np.uint8), tmp_path / "x.ppm")

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError):
            read_pgm(path)

    def test_read_rejects_short_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError):
            read_pgm(path)


class TestRasterizePolygon:
    def test_square_covers_pixel_centers(self):
        mask = rasterize_polygon([0, 0, 4, 0, 4, 4, 0, 4], 4, 4)
        assert mask.area() == 16

    def test_half_square_triangle(self):
        mask = rasterize_polygon([0, 0, 4, 0, 0, 4], 4, 4)
        assert mask.area() == 6
        assert mask.bits[0].tolist() == [True, True, True, False]
        assert mask.bits[3].tolist() == [False, False, False, False]

    def test_polygon_outside_grid(self):
        mask = rasterize_polygon([10, 10, 14, 10, 14, 14, 10, 14], 4, 4)
        assert mask.area() == 0

    def test_orientation_irrelevant(self):
        cw = rasterize_polygon([0, 0, 0, 4, 4, 4, 4, 0], 4, 4)
        ccw = rasterize_polygon([0, 0, 4, 0, 4, 4, 0, 4], 4, 4)
        assert cw == ccw


def _square_counts(width, height, x0, y0, x1, y1):
    bits = np.zeros((height, width), dtype=bool)
    bits[y0:y1, x0:x1] = True
    return list(rle_encode(BinaryMask(bits)).counts), bits


class TestCocoaImport:
    def _document(self):
        amodal_counts, self._r2_bits = _square_counts(6, 6, 1, 1, 5, 5)
        visible_counts, self._r2_visible = _square_counts(6, 6, 1, 1, 5, 3)
        return {
            "images": [
                {"id": 10, "width": 6, "height": 6, "file_name": "a.png"},
                {"id": 11, "width": 4, "height": 4},
            ],
            "annotations": [
                {
                    "image_id": 10,
                    "regions": [
                        {
                            "segmentation": [0, 0, 6, 0, 6, 6, 0, 6],
                            "name": "table",
                        },
                        {
                            "segmentation": {"size": [6, 6], "counts": amodal_counts},
                            "visible_mask": {"size": [6, 6], "counts": visible_counts},
                            "isStuff": 1,
                        },
                    ],
                    "depth_constraint": "1-2",
                }
            ],
        }

    def test_basic_import(self):
        result = import_cocoa(self._document())
        assert result.warning_count == 0
        assert len(result.images) == 2
        image = result.images[0]
        assert image.image_id == 10 and image.file_name == "a.png"
        assert image.order_pairs == ((1, 2),)
        first, second = image.annotations
        assert first.id == 1 and first.category == "table"
        assert first.amodal.area() == 36
        assert first.occlusion_rate == 0.0  # no visibility data means fully visible
        assert second.id == 2 and second.category == "stuff"
        assert np.array_equal(second.amodal.bits, self._r2_bits)
        assert np.array_equal(second.visible.bits, self._r2_visible)
        assert second.occlusion_rate == 0.5

    def test_image_without_annotations_is_kept_empty(self):
        result = import_cocoa(self._document())
        assert result.images[1].annotations == ()

    def test_invisible_mask_subtracts(self):
        doc = self._document()
        amodal_counts, _ = _square_counts(6, 6, 0, 0, 6, 6)
        invisible_counts, invisible_bits = _square_counts(6, 6, 0, 0, 6, 3)
        doc["annotations"][0]["regions"] = [
            {
                "segmentation": {"size": [6, 6], "counts": amodal_counts},
                "invisible_mask": {"size": [6, 6], "counts": invisible_counts},
            }
        ]
        doc["annotations"][0].pop("depth_constraint")
        result = import_cocoa(doc)
        ann = result.images[0].annotations[0]
        assert np.array_equal(ann.visible.bits, ~invisible_bits)
        assert ann.occlusion_rate == 0.5

    def test_compressed_rle_is_skipped_with_warning(self):
        doc = self._document()
        doc["annotations"][0]["regions"].insert(
            0, {"segmentation": {"size": [6, 6], "counts": "PZko02N1O"}}
        )
        result = import_cocoa(doc)
        assert result.warning_count == 1
        # surviving regions keep their original 1-based positions
        assert [ann.id for ann in result.images[0].annotations] == [2, 3]

    def test_unknown_fields_are_counted(self):
        doc = self._document()
        doc["annotations"][0]["regions"][0]["area"] = 36   # known, ignored quietly
        doc["annotations"][0]["regions"][0]["wings"] = 2   # unknown
        doc["images"][0]["exif"] = {}
        result = import_cocoa(doc)
        assert result.warning_count == 2

    def test_malformed_depth_token_warned_and_skipped(self):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = "1-2,zap,3-1"
        result = import_cocoa(doc)
        assert result.warning_count == 1
        assert result.images[0].order_pairs == ((1, 2), (3, 1))

    def test_unknown_image_id_fails(self):
        doc = self._document()
        doc["annotations"][0]["image_id"] = 99
        with pytest.raises(CocoaImportError) as err:
            import_cocoa(doc)
        assert "image_id" in err.value.path

    def test_duplicate_annotation_entry_fails(self):
        doc = self._document()
        doc["annotations"].append(doc["annotations"][0])
        with pytest.raises(CocoaImportError):
            import_cocoa(doc)

    def test_missing_images_section_fails(self):
        with pytest.raises(CocoaImportError):
            import_cocoa({"annotations": []})

    def test_odd_polygon_is_skipped_with_warning(self):
        doc = self._document()
        doc["annotations"][0]["regions"][0]["segmentation"] = [0, 0, 6]
        result = import_cocoa(doc)
        assert result.warning_count == 1
        assert [ann.id for ann in result.images[0].annotations] == [2]

    def test_multi_ring_polygon_even_odd(self):
        doc = self._document()
        doc["annotations"][0]["regions"] = [
            {
                "segmentation": [
                    [0, 0, 6, 0, 6, 6, 0, 6],   # outer square, 36 px
                    [2, 2, 4, 2, 4, 4, 2, 4],   # inner square, 4 px hole
                ]
            }
        ]
        doc["annotations"][0].pop("depth_constraint")
        result = import_cocoa(doc)
        ann = result.images[0].annotations[0]
        assert ann.amodal.area() == 32
        assert not ann.amodal.bits[2, 2] and not ann.amodal.bits[3, 3]
        assert ann.amodal.bits[0, 0]
