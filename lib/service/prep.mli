(** Execution of one planning job: the bridge from a validated request
    spec to the MDST engine.

    A spec without a storage budget runs the single-pass engine
    ({!Mdst.Engine.prepare}); with one, the multi-pass streaming engine
    ({!Mdst.Streaming.run}).  The result keeps the plan and schedule of
    single-pass runs so in-process callers (tests, the coalescing
    correctness check) can re-validate them; the wire protocol only
    ships the summary.

    A prepared plan also carries its {!Response.answer}: the answer
    bytes that never change for the plan, encoded once when the plan is
    made (planned, or decoded from the plan store) and so before it
    enters {!Cache}.  They are not part of the plan-store format. *)

type prepared = {
  summary : Response.summary;
  instr : Mdst.Instr.counters;
      (** Scheduler-core counters of the run, aggregated over every
          pass for streaming runs — shipped as the response's [instr]
          object. *)
  plan : Mdst.Plan.t option;  (** [None] for multi-pass streaming runs. *)
  schedule : Mdst.Schedule.t option;
  answer : Response.answer;
      (** [Response.answer summary (Some instr)], built by {!make}. *)
}

val make :
  summary:Response.summary ->
  instr:Mdst.Instr.counters ->
  plan:Mdst.Plan.t option ->
  schedule:Mdst.Schedule.t option ->
  prepared
(** The only constructor: encodes the answer bytes. *)

val run : Request.spec -> prepared
(** Build and schedule the forest for the spec.
    @raise Invalid_argument on inconsistent engine parameters (callers
    go through {!Validate.protect}). *)
