import golden  # noqa: F401  (one BLAS thread for every test, set before numpy loads)
