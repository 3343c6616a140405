"""Source-code rendering of IR programs.

Varity writes each test to disk as a self-contained source file —
``.cu`` for CUDA, ``.hip`` for HIP (§III: "Compiler matching is done
automatically depending on the program extensions").  These renderers
produce those artifacts: the ``compute`` kernel plus a ``main()`` that
parses inputs from ``argv``, allocates/initializes arrays, launches the
kernel, and synchronizes.  The C renderer emits the host-side reference
used by the Table I mini-app.
"""
