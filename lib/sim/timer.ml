type t = Engine.event

let never = Engine.no_event

let start engine ~delay fn = Engine.schedule_event engine ~delay fn

let cancel = Engine.cancel

let active = Engine.is_scheduled

let restart engine t ~delay fn =
  cancel t;
  start engine ~delay fn
