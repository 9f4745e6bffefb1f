from setuptools import find_packages, setup

setup(
    name="repro-tale-of-two-models",
    version="0.1.0",
    description=("Reproduction of 'A Tale of Two Models: Constructing "
                 "Evasive Attacks on Edge Models' (MLSys 2022)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
