"""The paper's evaluation as one path from declared experiment to artifact:
``harness`` (the cluster seam and the one measure function), ``experiments``
(the ``EXPERIMENTS`` registry), ``report`` (tables and the one reporter),
``__main__`` (``python -m repro.bench <name>``)."""
