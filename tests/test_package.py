import semdist
from semdist import CocoaImportError, SchemaError, SemDistError

# The public names of the package; a change here is a change to its API.
PUBLIC_NAMES = {
    "__version__",
    # core types
    "BinaryMask", "InstanceRecord", "LayerStackScene", "SceneViolation", "validate_scene",
    "amodal_mask_of", "visible_mask_of", "SemDistMap", "LayeringMap", "InstanceAnnotation",
    "ImageDiagnostics", "EvalReport", "LEVEL_ABSENT",
    # errors
    "SemDistError", "UnknownInstanceError", "DimensionMismatchError", "LayerCountError",
    "GenerationError", "ZeroAreaError", "EmptyGroundTruthError", "NoOverlappingPairsError",
    "RleError", "SchemaError", "SdmFormatError", "ImageFormatError", "CocoaImportError",
    "ConfidencePrecisionError",
    # encoding and decoding
    "DEFAULT_CONFIDENCE", "DEFAULT_THRESHOLD", "EMISSION_FLOOR", "ConfidencePolicy",
    "visibility_levels", "encode_semdist", "encode_scene", "decode_modal", "decode_amodal",
    "decode_levels", "overlap_region", "relative_order", "RelativeOrderMap", "OrderVerdict",
    "OrderRegions", "order_regions", "object_order", "global_layering_target",
    "instance_layering_target", "semdist_from_layering",
    # synthesis
    "SHAPES", "GenConfig", "PerturbConfig", "generate", "render", "instance_color",
    "occlusion_rate", "scene_annotations", "perturb", "perturb_semdist",
    # metrics
    "IOU_THRESHOLDS", "HEAVY_OCCLUSION_CUT", "MatchResult", "iou", "iou_matrix", "match",
    "average_precision", "average_recall", "stratified_ar", "order_accuracy",
    "assign_maps_to_gt", "evaluate", "report_to_dict",
    # losses
    "PROB_EPS", "LossWeights", "bce", "smooth_l1", "total_loss",
    # serialization
    "SDM_MAGIC", "RleMask", "rle_encode", "rle_decode", "scene_to_dict", "scene_from_dict",
    "write_scene", "read_scene", "annotations_to_dict", "annotations_from_dict",
    "write_annotations", "read_annotations", "semdist_to_bytes", "semdist_from_bytes",
    "write_semdist", "read_semdist", "write_pgm", "read_pgm", "write_ppm", "read_ppm",
    "rasterize_polygon", "CocoaImage", "CocoaImport", "import_cocoa",
}


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 100
    assert len(semdist.__all__) == len(set(semdist.__all__))
    assert set(semdist.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(semdist, name), name


def test_path_errors_stay_distinct():
    schema, cocoa = SchemaError("$.a", "bad"), CocoaImportError("$.b", "bad")
    assert (schema.path, str(schema)) == ("$.a", "$.a: bad")
    assert (cocoa.path, str(cocoa)) == ("$.b", "$.b: bad")
    assert isinstance(schema, SemDistError) and isinstance(cocoa, SemDistError)
    assert not isinstance(cocoa, SchemaError) and not isinstance(schema, CocoaImportError)
