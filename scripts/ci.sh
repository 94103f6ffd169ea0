#!/bin/sh
# CI entry point. The steps themselves live in the Makefile's `ci` target,
# the one list of CI steps.
set -eux

cd "$(dirname "$0")/.."

exec make ci
