"""The process pool behind every campaign, and the job specs it runs.

Not a public surface: :mod:`repro.campaign.runner` is the one caller.
:mod:`.jobs` holds the picklable :class:`~repro.parallel.jobs.Job` specs
and their content-addressed keys; :mod:`.executor` fans them out over a
forked worker pool with crash isolation and per-job timeouts.  See
DESIGN.md section 16.
"""
