/**
 * @file
 * The one ECSSD status vocabulary.
 *
 * Every layer reports outcomes through this enum: the session API
 * (api.hh), the serving layer (server.hh's Response), the staged
 * redeploy guards, and multi-tenant admission.  Historically the
 * API and the server each kept their own enum and callers translated
 * between them; the values of both now live here, with one toString.
 */

#ifndef ECSSD_ECSSD_STATUS_HH
#define ECSSD_ECSSD_STATUS_HH

namespace ecssd
{

/** Outcome of an API call or the terminal state of a request. */
enum class Status
{
    Ok,
    /** Served, but some candidate rows carry screener scores
     *  (uncorrectable FP32 pages). */
    Degraded,
    /** Rejected at admission (delay target, brownout shed, or
     *  eviction). */
    Shed,
    /** The device is not in accelerator mode (call ecssdEnable()). */
    WrongMode,
    /** No weights deployed (call weightDeploy()). */
    NotDeployed,
    /** The call needs an input this session has not received. */
    MissingInput,
    /** classify() before a screen() produced candidates. */
    NotScreened,
    /** results() before a successful classify(). */
    NotClassified,
    /** The feature length does not match the deployed layer. */
    DimensionMismatch,
    /** The session's weight version is gone: it predates the current
     *  deployment. */
    StaleSession,
    /** A staged redeploy is already in flight (one at a time). */
    RedeployActive,
    /** The redeploy call has no active redeploy to act on. */
    NoRedeploy,
    /** The tenant's DRAM partition or byte quota cannot hold the
     *  request (admission, screener residency, or cache carve). */
    TenantQuotaExceeded,
};

/** Human-readable status name. */
const char *toString(Status status);

} // namespace ecssd

#endif // ECSSD_ECSSD_STATUS_HH
